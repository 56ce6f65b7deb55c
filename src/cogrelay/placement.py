"""Relay placement on the linear network.

solve_equal_ratio gives the balanced layout, where every hop has the
same data-to-interference distance ratio rho; direct_search gives the
exact minimum of sum_k (d_data_k/d_interf_k)^eta over the simplex, which
can be slightly better.  Both walk the chain from the source and solve
for one scalar by Newton's method: solve_equal_ratio for the ratio rho
of many receiver positions at once, in one walk over numpy arrays, and
direct_search for the first hop's ratio of one position, with
newton_system, from the balanced ratio its caller has solved.

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
from .numerics import libm, row_fsum

_RESIDUAL_TOL = 1e-10  # bound on residual_norm of a returned balanced layout
_STEP_RTOL = 1e-8  # a Newton step this small relative to rho: rho has settled
_MAX_ITER = 100
_TINY = sys.float_info.min  # iterates are kept at or above this ratio


@dataclass(frozen=True)
class PlacementResult:
    """Solved relay layout, or P of them.

    d_data sums to one; ratio is the common d_data/d_interference value;
    residual_norm is max(|sum d_data - 1|, max_k |r_k/r_1 - 1|) over the
    returned ratios r_k = d_data_k/d_interference_k.  One layout holds
    tuples and floats; P layouts hold (P, K) and (P,) arrays, and
    iterations is their total.
    """

    d_data: tuple[float, ...] | np.ndarray
    d_interference: tuple[float, ...] | np.ndarray
    ratio: float | np.ndarray
    residual_norm: float | np.ndarray
    iterations: int

    @property
    def hop_count(self) -> int:
        return np.shape(self.d_data)[-1]


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
def newton_system(residual, rho: float, floor: float = 0.0) -> tuple[float, int]:
    """Newton's method for residual(rho)[0] = 0 over rho > 0.

    residual returns the value f and its derivative.  A step -f/f' that
    does not lower |f| is halved, up to 60 times, and where none of the
    halvings lowers it the smallest step is taken.  The solve ends at
    f = 0 or once rho has settled: a step of at most 1e-8*rho that no
    longer lowers |f| (the rounding floor), also after 100 iterations.
    Iterates are kept at or above the smallest normal double.  Returns
    rho and the iteration count.  Raises NumericError on a zero or
    non-finite derivative and ConvergenceError when rho has not settled
    after 100 iterations, or as soon as the halvings run out with |f| at
    most floor: |f| has then reached its rounding floor before rho
    settled, and every later iteration would run all 60 halvings again.
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
        else:
            if abs(f) <= floor:
                raise ConvergenceError(
                    f"placement Newton: residual {abs(f):.3e} after {it + 1} iterations"
                )
        rho, f, df = cand, f_cand, df_cand
    if f == 0.0 or settled:
        return rho, _MAX_ITER
    raise ConvergenceError(
        f"placement Newton: residual {abs(f):.3e} after {_MAX_ITER} iterations"
    )


def solve_equal_ratio(hop_count: int, pu_coord) -> PlacementResult:
    """Hop lengths making every d_data/d_interference ratio equal, for one
    primary-receiver position or for P of them at once.

    pu_coord is (x_p, y_p).  Scalars give one layout, as tuples and
    floats.  Arrays broadcast to (P,) and give P layouts: (P, K) d_data
    and d_interference, (P,) ratio and residual_norm, and iterations
    summed over the points.  Each point is solved on its own, with the
    same bits as alone.

    With common ratio rho every hop is rho times its transmitter's
    distance to the primary receiver,

        d_k = rho * hypot(x_p - pos_k, y_p),   pos_{k+1} = pos_k + d_k,

    so the layout is a forward recursion in rho and the sum-to-one
    constraint is the scalar equation pos_{K+1}(rho) = 1.  Newton solves
    it from the uniform layout's ratio, with d pos/d rho carried through
    the same recursion, until rho settles: a short tail of hops can be
    far more sensitive to rho than the sum is, so a small |sum d - 1|
    alone does not end the solve.  Every point follows newton_system's
    rules, and one walk of the recursion serves all points still
    searching, element by element.

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
    double-precision rho brings the sum within 1e-10 of one.  Where
    points fail, the error raised is that of the first of them.
    """
    if hop_count < 1:
        raise ConfigError("hop_count must be >= 1")
    px, py = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in pu_coord[:2]))
    one = px.ndim == 0
    px, py = px.reshape(-1), py.reshape(-1)
    errors = {}  # point -> the error it raises
    for i in np.flatnonzero((py == 0.0) & (0.0 <= px) & (px <= 1.0)).tolist():
        errors[i] = ConfigError(
            "primary receiver on the source-destination segment makes "
            "interference distances degenerate"
        )
    with np.errstate(all="ignore"):
        uniform_d_i = libm(math.hypot, px[:, None] - np.arange(hop_count) / hop_count,
                           py[:, None])
        total = row_fsum(uniform_d_i)  # nan where the exact sum overflows
        for i in np.flatnonzero(np.isnan(total)).tolist():
            errors.setdefault(i, ConfigError(
                f"primary receiver at {(float(px[i]), float(py[i]))} is so far off "
                "that its distances overflow"))
        if hop_count == 1:
            # exact: rho * hypot with rho = 1/hypot need not round to 1.0
            d_data, d_i = np.ones_like(uniform_d_i), uniform_d_i
            rho, residual = 1.0 / d_i[:, 0], np.zeros(px.size)
            iterations = np.zeros(px.size, dtype=int)
        else:
            rho, iterations = _balanced_ratios(px, py, 1.0 / total, hop_count, errors)
            d, x, pos = _walk(rho, px, py, hop_count, layout=True)
            # measured as interference_distances and hop_alphas measure it
            h = libm(math.hypot, px - x, py)
            ratios = d / h
            residual = np.maximum(np.abs(pos - 1.0), np.abs(ratios / ratios[0] - 1.0).max(axis=0))
            for i in np.flatnonzero(~(residual <= _RESIDUAL_TOL)).tolist():
                errors.setdefault(i, ConvergenceError(
                    f"balanced layout: residual {residual[i]:.3e} > {_RESIDUAL_TOL:g} "
                    f"(hop lengths sum to 1 + {pos[i] - 1.0:.3e})"))
            d_data, d_i = d.T.copy(), h.T.copy()
    if errors:
        raise errors[min(errors)]
    if one:
        return PlacementResult(
            d_data=tuple(d_data[0].tolist()),
            d_interference=tuple(d_i[0].tolist()),
            ratio=float(rho[0]),
            residual_norm=float(residual[0]),
            iterations=int(iterations[0]),
        )
    return PlacementResult(d_data, d_i, rho, residual, int(iterations.sum()))


def _walk(rho, px, py, hop_count: int, layout: bool = False):
    """The balanced layout's recursion at ratios rho, element by element
    over the broadcast arguments: pos_{K+1} - 1 and its derivative in
    rho, and with layout also the hop lengths and transmitter positions
    (K, ...) and their sum."""
    d, x = [], []
    pos = dpos = np.zeros_like(rho)
    for _ in range(hop_count):
        t = px - pos
        h = np.hypot(t, py)
        hop = rho * h
        if layout:
            x.append(pos)
            d.append(hop)
        # d pos/d rho gains h + rho dh/d rho, dh/d rho = -t/h * d pos/d rho
        dpos = dpos + (h - rho * (t / h * dpos))
        last, pos = pos, pos + hop
    if layout:
        return np.array(d), np.array(x), pos
    # pos - 1 before adding the last hop keeps a short last hop's digits
    return (last - 1.0) + hop, dpos


# step scales 2^-j of a Newton iteration, walked a group at a time: the
# full step, the usual few halvings, then the rest of the 60 at once
_STEP_SCALES = np.split(np.ldexp(1.0, -np.arange(60)), [1, 5])


def _balanced_ratios(px, py, start, hop_count: int, errors: dict):
    """Newton on pos_{K+1}(rho) = 1 at every point not in errors, each by
    newton_system's rules: its own step -f/f', halved up to 60 times while
    |f| does not fall, until f = 0 or rho has settled.  The candidates of
    a group of _STEP_SCALES are walked at once, and only at the points still
    searching; each point takes the first that lowers its |f|, as the
    halvings one by one would.  Returns rho and each point's iteration
    count, and adds the points that fail to errors."""
    rho = np.maximum(start, _TINY)
    f, df = _walk(rho, px, py, hop_count)
    iterations = np.full(rho.size, _MAX_ITER)
    settled = np.zeros(rho.size, dtype=bool)
    live = np.ones(rho.size, dtype=bool)
    live[list(errors)] = False
    for it in range(_MAX_ITER):
        a = np.flatnonzero(live)
        done = f[a] == 0.0
        iterations[a[done]] = it
        bad = ~done & ((df[a] == 0.0) | ~np.isfinite(df[a]))
        for i in a[bad].tolist():
            errors[i] = NumericError(
                f"placement Newton: derivative {float(df[i])} at ratio {float(rho[i])!r}")
        live[a[done | bad]] = False
        a = a[~(done | bad)]
        if a.size == 0:
            return rho, iterations
        step = -f / df
        settled[a] = np.abs(step[a]) <= _STEP_RTOL * rho[a]
        for lam in _STEP_SCALES:
            c = np.maximum(rho[a, None] + lam * step[a, None], _TINY)
            fc, dfc = _walk(c, px[a, None], py[a, None], hop_count)
            lower = (np.abs(fc) < np.abs(f[a, None])) | ~np.isfinite(f[a, None])
            found = lower.any(axis=1)
            stop = ~found & settled[a]  # rho has settled: it is the answer
            iterations[a[stop]] = it + 1
            live[a[stop]] = False
            # the first step that lowers |f|; after the last halving, the smallest
            take = np.flatnonzero(found | (lam is _STEP_SCALES[-1]) & ~settled[a])
            j = np.where(found, lower.argmax(axis=1), lam.size - 1)[take]
            rho[a[take]], f[a[take]], df[a[take]] = c[take, j], fc[take, j], dfc[take, j]
            a = a[~found & ~settled[a]]
            if a.size == 0:
                break
    for i in np.flatnonzero(live & (f != 0.0) & ~settled).tolist():
        errors[i] = ConvergenceError(
            f"placement Newton: residual {abs(f[i]):.3e} after {_MAX_ITER} iterations")
    return rho, iterations


def _hop_ratio(c: float, log_t: float, eta: float):
    """(r, f'(r)) at the smallest positive root r of
    f(r) = (eta-1) ln r + log1p(c r) - log_t if f'(r) > 0 there, else None.

    f is concave and, for c < 0, peaks at r* = (eta-1)/(eta |c|): there
    is no root where f(r*) < 0, else the smallest lies below r*.
    """
    e1 = eta - 1.0
    if c < 0 and e1 * math.log(e1 / (eta * -c)) - math.log(eta) < log_t:
        return None

    def residual(r):
        if c * r <= -1.0:  # past the pole of log1p
            return math.inf, math.nan
        return e1 * math.log(r) + math.log1p(c * r) - log_t, e1 / r + c / (1.0 + c * r)

    # from the root at c = 0 (exp overflows above 709)
    r = newton_system(residual, math.exp(min(log_t / e1, 700.0)))[0]
    slope = residual(r)[1]
    return (r, slope) if slope > 0 else None


def direct_search(hop_count: int, pu_coord, eta: float,
                  start: float) -> tuple[tuple[float, ...], float]:
    """Minimize the placement objective over the simplex directly.

    With r_k = d_k/h_k, h_k = hypot(x_p - pos_k, y_p) and
    c_k = (pos_k - x_p)/h_k, consecutive stationarity conditions of
    sum_k r_k^eta - mu (sum_k d_k - 1) give

        r_{k+1}^(eta-1)/h_{k+1} * (1 + c_{k+1} r_{k+1}) = r_k^(eta-1)/h_k,

    a forward recursion in r_1: each hop takes the smallest positive root
    (_hop_ratio), and newton_system shoots on r_1 from start, the
    balanced layout's ratio solve_equal_ratio(hop_count, pu_coord).ratio
    that the caller has solved, until the hop lengths sum to one.  The
    shot stops where its step halvings run out with the sum within 1e-10
    of one: no step can then lower its rounding error.

    Second order: the Hessian in the free positions pos_2..pos_K is
    tridiagonal with negative off-diagonals (_hop_ratio's slope is
    positive), and d pos/d r_1 solves its three-term recurrence, so the
    LDL pivot of pos_k is -H_{k,k+1} (d pos_{k+1}/d r_1)/(d pos_k/d r_1).
    The Hessian is positive definite iff every pos_k, up to pos_{K+1},
    rises with r_1.

    Returns the hop lengths and their objective.  Raises ConvergenceError
    where no layout of positive hops summing to one within 1e-10 passes
    that check, as seen with the primary receiver near the line (see
    README).
    """
    px, py = float(pu_coord[0]), float(pu_coord[1])
    if eta < 2:
        raise ValueError("eta must be >= 2")
    e1 = eta - 1.0

    def walk(r: float):
        """Hop lengths from r_1 = r, pos_{K+1} - 1, its r-derivative, all pos_k rising."""
        d = []
        pos = dpos = 0.0
        dr, rising = 1.0, True
        for k in range(hop_count):
            h = math.hypot(px - pos, py)
            c = (pos - px) / h
            dh = c * dpos
            if k:
                log_t = math.log(h / h_prev) + e1 * math.log(r)
                root = _hop_ratio(c, log_t, eta)
                if root is None:  # no stationary next hop: no candidate
                    return None, math.inf, math.nan, False
                # implicit derivative of (eta-1) ln r + log1p(c r) = log_t
                dlog_t = dh / h - dh_prev / h_prev + e1 * dr / r
                dc = dpos * (py / h) ** 2 / h
                r, dr = root[0], (dlog_t - root[0] / (1.0 + c * root[0]) * dc) / root[1]
            h_prev, dh_prev = h, dh
            d.append(r * h)
            miss = (pos - 1.0) + d[-1]
            pos += d[-1]
            dpos += dr * h + r * dh
            rising = rising and dpos > 0
        return d, miss, dpos, rising

    try:
        r = newton_system(lambda r: walk(r)[1:3], start, floor=_RESIDUAL_TOL)[0]
    except NumericError as exc:
        raise ConvergenceError(f"direct search: {exc}") from exc
    d, miss, _, rising = walk(r)
    if not abs(miss) <= _RESIDUAL_TOL:
        raise ConvergenceError(f"direct search: hop lengths sum to 1 + {miss:.3e}")
    if not (rising and min(d) > 0):
        raise ConvergenceError("direct search: no stationary minimum with every hop positive")
    return tuple(d), placement_objective(d, (px, py), eta)
