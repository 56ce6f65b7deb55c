"""Relay placement on the linear network.

solve_equal_ratio implements the balanced-ratio optimality condition:
all hops share the same data-to-interference distance ratio rho, which
makes the layout a forward recursion in rho and the sum-to-one
constraint a scalar equation, solved by a scalar Newton iteration on
the common ratio (newton_system).  direct_search minimizes the
underlying objective sum_k (d_data_k / d_interf_k)^eta over the simplex
directly; it is a diagnostic, because the balanced-ratio point is a
stationary point of an arithmetic-geometric mean bound whose product
term itself varies with placement, so the direct optimum can be
(slightly) better.

Only positions are solved here.  A layout's outage and BER minima are
the high-SNR asymptotes outage_asymptotic and e2e_ber_asymptotic on its
alphas, I_p/N_0 * (d_interference_k/d_data_k)^eta.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericError

_D_MIN = 1e-6  # smallest hop length direct_search considers
_RESIDUAL_TOL = 1e-10  # bound on residual_norm of a returned balanced layout
_STEP_RTOL = 1e-8  # a Newton step this small relative to rho: rho has settled
_MAX_ITER = 100
_TINY = sys.float_info.min  # iterates are kept at or above this ratio


@dataclass(frozen=True)
class PlacementResult:
    """Solved relay layout.

    d_data sums to one; ratio is the common d_data/d_interference value;
    residual_norm is max(|sum d_data - 1|, max_k |r_k/r_1 - 1|) over the
    returned ratios r_k = d_data_k/d_interference_k.
    """

    d_data: tuple[float, ...]
    d_interference: tuple[float, ...]
    ratio: float
    residual_norm: float
    iterations: int

    @property
    def hop_count(self) -> int:
        return len(self.d_data)


def _check_pu(pu_coord) -> tuple[float, float]:
    px, py = float(pu_coord[0]), float(pu_coord[1])
    if py == 0.0 and 0.0 <= px <= 1.0:
        raise ConfigError(
            "primary receiver on the source-destination segment makes "
            "interference distances degenerate"
        )
    return px, py


def interference_distances(d_data, pu_coord) -> list[float]:
    """Transmitter-to-primary distances for the hop lengths d_data."""
    px, py = pu_coord
    out = []
    pos = 0.0
    for d in d_data:
        out.append(math.hypot(px - pos, py))
        pos += d
    return out


def placement_objective(d_data, pu_coord, eta: float) -> float:
    """sum_k (d_data_k / d_interf_k)^eta, the quantity both outage and
    BER asymptotes scale with."""
    dists = interference_distances(d_data, pu_coord)
    return sum((d / di) ** eta for d, di in zip(d_data, dists))


# bench/spans.py wraps this module attribute by name: keep the name.
def newton_system(residual, rho: float) -> tuple[float, int]:
    """Newton's method for residual(rho)[0] = 0 over rho > 0.

    residual returns the value f and its derivative.  A step -f/f' that
    does not lower |f| is halved, up to 60 times.  The solve ends at f = 0
    or once rho has settled: a step of at most 1e-8*rho that no longer
    lowers |f| (the rounding floor), also after 100 iterations.  Iterates
    are kept at or above the smallest normal double.  Returns rho and the
    iteration count.  Raises NumericError on a zero or non-finite
    derivative and ConvergenceError when rho has not settled after 100
    iterations.
    """
    rho = max(rho, _TINY)
    f, df = residual(rho)
    settled = False
    for it in range(_MAX_ITER):
        if f == 0.0:
            return rho, it
        if df == 0.0 or not math.isfinite(df):
            raise NumericError(f"placement Newton: derivative {df} at ratio {rho!r}")
        step = -f / df
        settled = abs(step) <= _STEP_RTOL * rho
        lam = 1.0
        for _ in range(60):
            cand = max(rho + lam * step, _TINY)
            f_cand, df_cand = residual(cand)
            if abs(f_cand) < abs(f) or not math.isfinite(f):
                break
            if settled:
                return rho, it + 1
            lam *= 0.5
        rho, f, df = cand, f_cand, df_cand
    if f == 0.0 or settled:
        return rho, _MAX_ITER
    raise ConvergenceError(
        f"placement Newton: residual {abs(f):.3e} after {_MAX_ITER} iterations"
    )


def solve_equal_ratio(hop_count: int, pu_coord) -> PlacementResult:
    """Hop lengths making every d_data/d_interference ratio equal.

    With common ratio rho every hop is rho times its transmitter's
    distance to the primary receiver,

        d_k = rho * hypot(x_p - pos_k, y_p),   pos_{k+1} = pos_k + d_k,

    so the layout is a forward recursion in rho and the sum-to-one
    constraint is the scalar equation pos_{K+1}(rho) = 1.  Newton solves
    it from the uniform layout's ratio, with d pos/d rho carried through
    the same recursion, until rho settles: a short tail of hops can be
    far more sensitive to rho than the sum is, so a small |sum d - 1|
    alone does not end the solve.

    Monotonicity of the sum.  With h_k = hypot(x_p - pos_k, y_p) and
    pos_1 = 0, differentiating the recursion gives

        d pos_{k+1}/d rho = d pos_k * (1 + rho (pos_k - x_p)/h_k) + h_k.

    Since |pos_k - x_p| <= h_k, the factor is at least 1 - rho, so for
    rho <= 1 every d pos_{k+1}/d rho >= h_k > 0 by induction: the sum of
    the hop lengths, pos_{K+1}, is strictly increasing on (0, 1] and
    equals 1 at most once there.  For rho > 1 the factor turns negative where the
    primary receiver lies ahead of a relay (pos_k < x_p) and
    rho (x_p - pos_k) > h_k; no argument covers that case yet, so a root
    above 1 is not known to be unique.

    residual_norm is evaluated on the returned d_data and d_interference.
    Raises ConvergenceError when rho does not settle or residual_norm
    exceeds 1e-10.  That has been seen only with 16 or more hops and the
    primary receiver at most 1e-8 off the segment, where mostly no
    double-precision rho brings the sum within 1e-10 of one.
    """
    if hop_count < 1:
        raise ConfigError("hop_count must be >= 1")
    px, py = _check_pu(pu_coord)
    if hop_count == 1:
        # exact: rho * hypot with rho = 1/hypot need not round to 1.0
        d_i = math.hypot(px, py)
        return PlacementResult(
            d_data=(1.0,),
            d_interference=(d_i,),
            ratio=1.0 / d_i,
            residual_norm=0.0,
            iterations=0,
        )

    def walk(rho: float):
        """Hop lengths at rho, pos_{K+1} - 1 and its derivative in rho."""
        d = []
        pos = dpos = 0.0
        for _ in range(hop_count):
            h = math.hypot(px - pos, py)
            dh = (pos - px) / h * dpos
            d.append(rho * h)
            # pos - 1 before adding the hop keeps a short last hop's digits
            miss = (pos - 1.0) + d[-1]
            pos += d[-1]
            dpos += h + rho * dh
        return d, miss, dpos

    uniform_d_i = [math.hypot(px - k / hop_count, py) for k in range(hop_count)]
    rho, iterations = newton_system(
        lambda r: walk(r)[1:], 1.0 / math.fsum(uniform_d_i)
    )
    d = walk(rho)[0]
    d_i = interference_distances(d, (px, py))
    ratios = [a / b for a, b in zip(d, d_i)]
    residual = max(
        abs(sum(d) - 1.0), max(abs(r / ratios[0] - 1.0) for r in ratios)
    )
    if not residual <= _RESIDUAL_TOL:
        raise ConvergenceError(
            f"balanced layout: residual {residual:.3e} > {_RESIDUAL_TOL:g} "
            f"(hop lengths sum to 1 + {sum(d) - 1.0:.3e})"
        )
    return PlacementResult(
        d_data=tuple(d),
        d_interference=tuple(d_i),
        ratio=rho,
        residual_norm=residual,
        iterations=iterations,
    )


def direct_search(
    hop_count: int,
    pu_coord,
    eta: float,
    grid_resolution: int = 200,
) -> tuple[tuple[float, ...], float]:
    """Minimize the placement objective over the simplex directly.

    Exhaustive grid over the free hop lengths (capped near 2e6 cells for
    3 and 4 hops) followed by per-coordinate bounded refinement.  Ties
    break toward lexicographically smallest hop lengths.  Diagnostic
    oracle; not restricted to the balanced-ratio family.
    """
    from scipy import optimize  # the CLI's other paths need no scipy.optimize

    if not 1 <= hop_count <= 4:
        raise ConfigError("direct search supports 1 to 4 hops")
    if grid_resolution < hop_count - 1:
        # coarser grids hold no layout with every hop positive
        raise ConfigError(
            f"grid resolution must be >= {hop_count - 1} for {hop_count} hops"
        )
    px, py = _check_pu(pu_coord)
    if eta < 2:
        raise ValueError("eta must be >= 2")
    if hop_count == 1:
        return (1.0,), placement_objective([1.0], (px, py), eta)

    k = hop_count
    res = grid_resolution
    if k > 2:
        res = min(res, int(2e6 ** (1.0 / (k - 1))))
    axis = np.linspace(0.0, 1.0, res + 2)[1:-1]
    grids = np.meshgrid(*([axis] * (k - 1)), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)
    last = 1.0 - u.sum(axis=1)
    feasible = last > _D_MIN
    u = u[feasible]
    d = np.column_stack([u, last[feasible]])
    prefix = np.concatenate(
        [np.zeros((d.shape[0], 1)), np.cumsum(d, axis=1)[:, :-1]], axis=1
    )
    d_i = np.hypot(px - prefix, py)
    objs = ((d / d_i) ** eta).sum(axis=1)
    best = int(np.argmin(objs))
    u_best = u[best].copy()

    def obj_of(u_vec: np.ndarray) -> float:
        d_vec = np.concatenate([u_vec, [1.0 - u_vec.sum()]])
        if np.any(d_vec <= 0):
            return np.inf
        return placement_objective(d_vec, (px, py), eta)

    current = obj_of(u_best)
    for _ in range(200):
        improved = False
        for j in range(k - 1):
            others = u_best.sum() - u_best[j]
            lo, hi = _D_MIN, 1.0 - others - _D_MIN
            if hi <= lo:
                continue

            def line(t, j=j):
                trial = u_best.copy()
                trial[j] = t
                return obj_of(trial)

            sol = optimize.minimize_scalar(
                line, bounds=(lo, hi), method="bounded",
                options={"xatol": 1e-14},
            )
            if sol.fun < current - 1e-16:
                u_best[j] = sol.x
                current = sol.fun
                improved = True
        if not improved:
            break
    d_best = np.concatenate([u_best, [1.0 - u_best.sum()]])
    return tuple(float(v) for v in d_best), float(current)
