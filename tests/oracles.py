"""Reference forms that only the tests use.

The per-hop SNR law, the weakest-hop density, the identical-hop closed
forms, an adaptive semi-infinite quadrature, a grid search of the
placement objective, the raw Monte-Carlo estimator and the chain
recursion in four calls a hop: independent routes to the quantities the
library computes, kept out of its public API.  Besides them, a Monte-
Carlo pass's kernels on a given 1/mu and the block merge it replaces
with running sums, as references for the pass.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, optimize, special

from cogrelay import (
    ConfigError,
    McEstimate,
    NumericError,
    QamConstants,
    Scenario,
    derive_hop_statistics,
    ergodic_capacity_ind,
    hop_ber,
    placement_objective,
    qam_constants,
    substream,
)
from cogrelay.channel import sample_exponential
from cogrelay.montecarlo import BLOCK_TRIALS, _ber_terms, _values, _Workspace

_D_MIN = 1e-6  # smallest hop length grid_search considers


def quad_semiinfinite(f: Callable[[float], float], tol: float = 1e-10) -> float:
    """Adaptive quadrature of f over [0, inf) to relative tolerance tol.

    Raises NumericError if the estimate cannot be trusted at the
    requested tolerance.
    """
    with warnings.catch_warnings():
        # accuracy is judged from the reported error bound below
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.quad(
            f, 0.0, np.inf, epsabs=0.0, epsrel=tol, limit=500
        )
        if np.isfinite(value) and abserr <= tol * max(abs(value), 1e-300):
            return value
        # Retry with the axis split around the scales where most mass lives.
        total = 0.0
        err = 0.0
        for a, b in ((0.0, 1.0), (1.0, 1e2), (1e2, 1e5), (1e5, np.inf)):
            v, e = integrate.quad(f, a, b, epsabs=0.0, epsrel=tol, limit=500)
            total += v
            err += e
    if not np.isfinite(total) or err > tol * max(abs(total), 1e-300):
        raise NumericError(
            f"semi-infinite quadrature did not reach relative tolerance {tol:g}"
        )
    return total


def snr_pdf(gamma, alpha: float):
    """Density alpha/(gamma+alpha)^2 of the per-hop SNR."""
    _check(gamma, alpha)
    g = np.asarray(gamma, dtype=float)
    out = alpha / (g + alpha) ** 2
    return float(out) if np.isscalar(gamma) else out


def snr_cdf(gamma, alpha: float):
    """Distribution function gamma/(gamma+alpha), in [0, 1)."""
    _check(gamma, alpha)
    g = np.asarray(gamma, dtype=float)
    out = g / (g + alpha)
    return float(out) if np.isscalar(gamma) else out


def _check(gamma, alpha):
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if np.any(np.asarray(gamma) < 0):
        raise ValueError("gamma must be non-negative")


def min_snr_pdf(gamma: float, alphas: Sequence[float]) -> float:
    """Density of min-over-hops SNR at gamma.

    Evaluated as sum_k [prod_n alpha_n/(gamma+alpha_n)] / (gamma+alpha_k),
    a form whose factors all lie in (0, 1] so it neither overflows nor
    cancels.
    """
    al = np.asarray(alphas, dtype=float)
    if al.ndim == 0 or al.size == 0:
        raise ValueError("need at least one hop")
    if np.any(al <= 0):
        raise ValueError("alphas must be positive")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    survival = np.prod(al / (gamma + al))
    return float(survival * np.sum(1.0 / (gamma + al)))


def e2e_ber_iid(alpha: float, hop_count: int, constants: QamConstants) -> float:
    """Closed form for identical hops: (1 - (1 - 2*hop_ber)^K)/2."""
    if hop_count < 1:
        raise ValueError("hop_count must be >= 1")
    p = hop_ber(alpha, constants)
    return 0.5 * (1.0 - (1.0 - 2.0 * p) ** hop_count)


def ergodic_capacity_iid(alpha: float, hop_count: int) -> float:
    """Ergodic capacity for identical hops, alpha^K * kernel(K, alpha),
    as the special case of ergodic_capacity_ind."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if hop_count < 1:
        raise ValueError("hop_count must be >= 1")
    return ergodic_capacity_ind([alpha] * hop_count)


def grid_search(
    hop_count: int,
    pu_coord,
    eta: float,
    grid_resolution: int = 200,
) -> tuple[tuple[float, ...], float]:
    """Minimize the placement objective over the simplex directly.

    Exhaustive grid over the free hop lengths (capped near 2e6 cells for
    3 and 4 hops) followed by per-coordinate bounded refinement.  Ties
    break toward lexicographically smallest hop lengths.  The reference
    for placement.direct_search at 4 hops or fewer.
    """
    if not 1 <= hop_count <= 4:
        raise ConfigError("direct search supports 1 to 4 hops")
    if grid_resolution < hop_count - 1:
        # coarser grids hold no layout with every hop positive
        raise ConfigError(
            f"grid resolution must be >= {hop_count - 1} for {hop_count} hops"
        )
    px, py = float(pu_coord[0]), float(pu_coord[1])
    if py == 0.0 and 0.0 <= px <= 1.0:
        raise ConfigError("primary receiver on the source-destination segment")
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


def raw_monte_carlo(
    scenario: Scenario, trials: int, seed: int, metrics: Sequence[str] = ("op", "ber", "capacity")
) -> dict[str, McEstimate]:
    """The raw estimators that the library's conditional ones replace.

    Every trial draws both gains of every hop, block b from
    substream(seed, b) as a (2, n, K) array, takes each hop's SNR as
    alpha * X / Y from the data gain X and the interference gain Y, and
    averages the outage
    indicator, the instantaneous BER through scipy's erfc chained by the
    odd-number-of-errors recursion, or log2(1 + min hop SNR)/K.  The
    standard error takes a two-pass variance over all trials.
    """
    alpha = derive_hop_statistics(scenario)[:, None]
    k = len(alpha)
    constants = qam_constants(scenario.qam_order)
    values: dict[str, list] = {m: [] for m in metrics}
    for block in range((trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS):
        n = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
        draws = sample_exponential(substream(seed, block), (2, n, k))
        snr = alpha * draws[0].T / np.maximum(draws[1].T, 1e-300)
        weakest = snr.min(axis=0)
        if "op" in values:
            values["op"].append((weakest < scenario.gamma_th).astype(float))
        if "ber" in values:
            values["ber"].append(_raw_ber(snr, constants))
        if "capacity" in values:
            values["capacity"].append(np.log2(1.0 + weakest) / k)
    estimates = {}
    for metric, blocks in values.items():
        v = np.concatenate(blocks)
        estimates[metric] = McEstimate(
            value=float(v.mean()),
            std_error=float(np.sqrt(v.var(ddof=1) / trials)) if trials > 1 else 0.0,
            trials=trials,
            seed=seed,
        )
    return estimates


def _raw_ber(snr: np.ndarray, constants: QamConstants) -> np.ndarray:
    """Per-trial end-to-end BER from the (K, n) instantaneous SNRs."""
    erfcs = {omega: special.erfc(np.sqrt(omega * snr))
             for _, _, _, omega, _ in constants.terms}
    hop = sum(phi * erfcs[omega] for _, _, _, omega, phi in constants.terms)
    hop = np.clip(hop / constants.denominator, 0.0, 1.0)
    acc = np.zeros(snr.shape[1])
    for row in hop[::-1]:
        acc = row + (1.0 - 2.0 * row) * acc
    return acc


def ber_chain(hop: np.ndarray) -> np.ndarray:
    """The end-to-end BER of (K, n) per-hop BERs by the odd-number-of-errors
    recursion as four numpy calls a hop, from the last hop back to the
    first: step = (-2 hop_r + 1) out, then out = hop_r + step."""
    out = hop[-1].copy()
    step = np.empty_like(out)
    for row in hop[-2::-1]:
        np.multiply(row, -2.0, out=step)
        step += 1.0
        step *= out
        np.add(row, step, out=out)
    return out


def mc_kernel(metric: str, scenario: Scenario):
    """The function from one block's (K, n) 1/mu to the metric's per-trial
    values, as a pass computes them; 1/mu may be any value from 0 to inf."""
    ber = _ber_terms(qam_constants(scenario.qam_order))

    def kernel(inv_mu: np.ndarray) -> np.ndarray:
        space = _Workspace(*inv_mu.shape)
        ones = np.ones((len(inv_mu), 1))
        for _, values in _values(inv_mu, ones, (metric,), scenario.gamma_th, ber, space,
                                 top=math.inf):
            return values.copy()

    return kernel


def chan_estimate(partials, trials: int, seed: int) -> McEstimate:
    """Mean and standard error from per-block (count, mean, M2), merged
    pairwise in block order (Chan, Golub & LeVeque 1983)."""
    count, mean, m2 = 0, 0.0, 0.0
    for n, block_mean, block_m2 in partials:  # fixed block order
        total = count + n
        delta = block_mean - mean
        mean += delta * (n / total)
        m2 += block_m2 + delta * delta * (count * n / total)
        count = total
    var = m2 / (trials - 1) if trials > 1 else 0.0
    return McEstimate(
        value=mean,
        std_error=math.sqrt(var / trials),
        trials=trials,
        seed=seed,
    )
