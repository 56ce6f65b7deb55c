"""Ergodic capacity of the weakest-hop SNR approximation.

Two routes give the same quantity; the number of hops K picks one.

* K >= _QUADRATURE_HOPS (5): the survival integral
  (1/(K ln 2)) int_0^inf S(g)/(1+g) dg, S(g) = prod_k alpha_k/(g+alpha_k),
  by the trapezoid rule in ln g (_survival_quadrature).  Its integrand is
  a product of factors in (0, 1], so it keeps its relative accuracy on
  every chain: within 3e-16 of 40 digits on the 5- to 64-hop chains of
  the default geometry at 0, 15 and 30 dB.  The partial-fraction sum
  below cancels on such chains: it is off by more than 1e-12 on 15-27%
  of random chains from K = 5 on, and by up to 1.15e-9.
* K <= 4: the paper's closed form.  The end-to-end PDF is a rational
  function with poles at the negated per-hop scale parameters.
  Expanding it in partial fractions reduces the capacity integral to a
  weighted sum of one closed-form kernel per pole and multiplicity.
  Here it is off by more than 1e-12 on 0.3% of random chains, and on a
  sweep of three-hop chains it is three times as fast as the quadrature.

Numerical notes on the closed form, earned the hard way:

* Expansion coefficients are computed by residue calculus through a
  log-derivative recurrence.
* Near-coincident poles are merged into one pole of higher multiplicity
  before expanding; unmerged near-duplicates would produce gigantic
  cancelling coefficients.
* The pole kernel has a removable singularity at pole = 1; a power
  series in (pole - 1) is used on |pole - 1| <= 1/2 because the closed
  form loses all precision to cancellation there once the multiplicity
  exceeds 2.  Where that alternating series or the closed form cancels
  for a pole above 1 (high orders), the kernel is summed instead as a
  series of positive terms (_kernel_remainder).
* Where the float64 sum cannot be trusted, the chain takes the
  quadrature: when a term is not finite (a pole kernel leaves the
  float64 range), when the terms cancel by more than _CANCEL_LIMIT
  (poles just outside the merge tolerance of each other), or when the
  result is not in (0, inf) (the prefactor prod(alpha) overflowed or
  underflowed).

A sweep is evaluated in one call: alphas of shape (P, K) hold P chains.
On the closed form, chains with the same pattern of pole multiplicities
share one vectorized expansion and one kernel call per order, with every
elementary function and sum rounded as the one-chain call rounds it.
The quadrature shares each node's exponential between chains and sums
each chain over its own nodes.  Either way each chain gets the bits of its own call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError
from .numerics import libm, libm_pow, row_fsum

_LN2 = math.log(2.0)
# Chains of this many hops or more take the survival quadrature.  On
# 1,200 random chains the partial-fraction sum is off by more than 1e-12
# on 0.3% of those with K <= 4 but on 15-27% from K = 5 on; below, it is
# also the faster route (3,300 three-hop rows: 16 ms against 47-55 ms).
_QUADRATURE_HOPS = 5
_SERIES_RADIUS = 0.5       # switch between series and closed-form kernel
_CANCEL_LIMIT = 1e6        # max |term| / |sum| tolerated in float64
_KERNEL_CANCEL_LIMIT = 1e3  # same, inside the closed-form pole kernel
_CLUSTER_TOL = 1e-6        # relative gap within which poles merge
_QUAD_STEP = 0.25          # survival quadrature step in ln(gamma)
_QUAD_MARGIN = 40.0        # e-folds integrated past the outermost pole
_QUAD_BLOCK = 1 << 12      # values in each quadrature working array
_EXP_MAX = 709.0           # math.exp overflows just above this


@dataclass(frozen=True)
class PartialFractionExpansion:
    """Expansion prefactor * sum_n sum_l A[n][l-1]/(gamma+beta_n)^(l+1).

    betas are the distinct pole values in ascending order; multiplicity
    r_n contributes terms l = 1..r_n.  prefactor is the product of the
    original scale parameters.
    """

    betas: tuple[float, ...]
    multiplicities: tuple[int, ...]
    coefficients: tuple[tuple[float, ...], ...]
    prefactor: float

    def coefficient(self, pole_index: int, order: int) -> float:
        return self.coefficients[pole_index][order - 1]

    def terms(self):
        """Yield (pole, order, coefficient) for every summand."""
        for n, beta in enumerate(self.betas):
            for l, a in enumerate(self.coefficients[n], start=1):
                yield beta, l, a


def partial_fraction_expand(alphas: Sequence[float]) -> PartialFractionExpansion:
    """Expand the weakest-hop SNR density into partial fractions.

    Scale parameters within relative _CLUSTER_TOL of each other are
    merged into a single pole with summed multiplicity; the coefficients
    come from residue calculus.
    """
    al = _checked_alphas(alphas)
    if al.ndim != 1:
        raise ValueError("alphas must be one chain's hops")
    ordered, merged = _cluster_poles(al[None, :])
    starts, mults = _pole_pattern(merged[0])
    coeffs = _residue_coefficients(ordered[:, starts], mults)
    return PartialFractionExpansion(
        betas=tuple(float(b) for b in ordered[0, starts]),
        multiplicities=mults,
        coefficients=tuple(tuple(float(c[0]) for c in row) for row in coeffs),
        prefactor=float(np.prod(al)),
    )


def capacity_pole_integral(order: int, pole):
    """Kernel int_0^inf log2(1+g)/(pole+g)^(order+1) dg, always positive;
    element by element for an array of poles.

    Raises NumericError when that value is outside the float64 range,
    as it is at high orders for poles far from 1.
    """
    l = order
    if not isinstance(l, int) or l < 1:
        raise ValueError("order must be a positive integer")
    poles = np.asarray(pole, dtype=float)
    if np.any(poles <= 0):
        raise ValueError("pole must be positive")
    with np.errstate(all="ignore"):
        value = _pole_kernel(l, poles.reshape(-1))
    failed = np.isnan(value)
    if failed.any():
        raise NumericError(
            f"capacity kernel of order {l} at pole {poles.reshape(-1)[failed][0]:.6g} "
            "is outside the float64 range"
        )
    return float(value[0]) if poles.ndim == 0 else value.reshape(poles.shape)


def _pole_kernel(l: int, pole: np.ndarray) -> np.ndarray:
    """capacity_pole_integral of a 1-D array of poles; nan where the
    value is outside (0, inf) or an intermediate leaves the float64 range."""
    value = np.full(pole.shape, math.nan)
    delta = pole - 1.0
    value[delta == 0.0] = 1.0 / (l * l * _LN2)
    near = np.flatnonzero((delta != 0.0) & (np.abs(delta) <= _SERIES_RADIUS))
    if near.size:
        series = _kernel_series(l, delta[near])
        # high orders make the alternating series cancel internally; no
        # pole below 1 has been seen to (orders up to 200), and one would
        # stay nan
        cancels = np.isnan(series) & (delta[near] > 0.0)
        if cancels.any():
            series[cancels] = _kernel_remainder(l, pole[near[cancels]])
        value[near] = series / (l * _LN2)
    far = np.abs(delta) > _SERIES_RADIUS
    if far.any():
        value[far] = _kernel_closed_form(l, pole[far], delta[far])
    value[~((value > 0.0) & (value < math.inf))] = math.nan
    return value


def _kernel_closed_form(l: int, pole: np.ndarray, delta: np.ndarray) -> np.ndarray:
    # (log(pole)/delta^l - sum_k 1/(delta^k (l-k) pole^(l-k))) / (l ln 2),
    # nan wherever a power overflows or a divisor is 0
    delta_l = libm_pow(delta, l)
    failed = np.isinf(delta_l) | (delta_l == 0.0)
    lead = libm(math.log, pole) / delta_l
    tail = 0.0
    for k in range(1, l):
        delta_k, pole_k = libm_pow(delta, k), libm_pow(pole, l - k)
        divisor = delta_k * (l - k) * pole_k
        failed |= np.isinf(delta_k) | np.isinf(pole_k) | (divisor == 0.0)
        tail = tail + 1.0 / divisor
    value = (lead - tail) / (l * _LN2)
    cancels = (pole > 1.0) & (np.abs(lead) > _KERNEL_CANCEL_LIMIT * np.abs(lead - tail))
    if cancels.any():
        value[cancels] = _kernel_remainder(l, pole[cancels]) / (l * _LN2)
    value[failed] = math.nan
    return value


def _kernel_series(l: int, delta: np.ndarray) -> np.ndarray:
    # int_0^1 u^(l-1) (1 + delta*u)^(-l) du as a binomial series in delta;
    # geometric convergence for |delta| <= 1/2.  nan where the partial
    # sums cancel too heavily for float64 (large l, |delta| near the
    # radius), signalling the remainder series.  Each element
    # stops at its own first negligible term; sums already stopped keep
    # being updated but are never read again.
    result = np.full(delta.shape, math.nan)
    running = np.ones(delta.shape, dtype=bool)
    coeff = np.ones(delta.shape)
    total = np.zeros(delta.shape)
    largest = np.zeros(delta.shape)
    for m in range(1200):
        term = coeff / (l + m)
        total = total + term
        largest = np.maximum(largest, np.abs(term))
        done = running & (np.abs(term) < 1e-18 * np.maximum(np.abs(total), 1e-300))
        trusted = done & ~(largest > _CANCEL_LIMIT * np.abs(total))
        result[trusted] = total[trusted]
        running &= ~done
        if not running.any():
            return result
        coeff = coeff * (-delta * (l + m) / (m + 1))
    raise NumericError("capacity kernel series failed to converge")


def _kernel_remainder(l: int, pole: np.ndarray) -> np.ndarray:
    # lead - tail above is pole^-l sum_{m>=0} x^m/(l+m), x = 1 - 1/pole:
    # the remainder of the series of log(pole) = -log(1-x).  For pole > 1
    # its terms are positive, and where the closed form or the series in
    # delta cancels x^l is small (x <= 1/3 on the series' side of 1.5),
    # so they fall off fast.  nan where pole^l overflows.
    result = np.empty(pole.shape)
    running = np.ones(pole.shape, dtype=bool)
    x = 1.0 - 1.0 / pole
    total = np.zeros(pole.shape)
    power = np.ones(pole.shape)
    m = 0
    while running.any():
        term = power / (l + m)
        total = total + term
        done = running & (term < 1e-18 * total)
        result[done] = total[done]
        running &= ~done
        power = power * x
        m += 1
    pole_l = libm_pow(pole, l)
    return np.where(np.isinf(pole_l), math.nan, result / pole_l)


def ergodic_capacity_ind(alphas):
    """Ergodic capacity (bits/s/Hz) for non-identical hops.

    alphas of shape (K,) give a float, (P, K) a (P,) array.  Chains of
    _QUADRATURE_HOPS (5) hops or more take the survival quadrature: from
    K = 5 on, the float64 partial-fraction sum is off by more than 1e-12
    on 15-27% of random chains, and the quadrature is within 3e-16 of 40
    digits on the 5- to 64-hop chains of the default geometry.  Shorter
    chains take the paper's closed form, which is accurate there and the
    faster route for long sweeps.  Its points are grouped by their pattern
    of pole multiplicities, each group is expanded and summed at once, and
    a point whose float64 sum cannot be trusted takes the quadrature.
    """
    al = _checked_alphas(alphas)
    rows = al.reshape(-1, al.shape[-1])
    if rows.shape[1] >= _QUADRATURE_HOPS:
        capacity = _survival_quadrature(rows)
    else:
        capacity = _closed_form(rows)
    return float(capacity[0]) if al.ndim == 1 else capacity.reshape(al.shape[:-1])


def _closed_form(rows: np.ndarray) -> np.ndarray:
    """ergodic_capacity_ind of (P, K) rows by partial fractions, with the
    quadrature where a row's sum is not finite or cancels."""
    k = rows.shape[1]
    # overflow is judged from the values, so numpy need not warn about it
    with np.errstate(all="ignore"):
        prefactor = np.prod(rows, axis=1)
        capacity = prefactor / k
        # prod(alpha) at 0 or inf would only lead to the quadrature
        expandable = np.flatnonzero((prefactor > 0.0) & (prefactor < math.inf))
        ordered, merged = _cluster_poles(rows[expandable])
        patterns, group_of = np.unique(merged, axis=0, return_inverse=True)
        for g, pattern in enumerate(patterns.tolist()):
            members = np.flatnonzero(group_of == g)
            starts, mults = _pole_pattern(pattern)
            betas = ordered[members][:, starts]
            coeffs = _residue_coefficients(betas, mults)
            # one kernel call per order, over every pole of that order
            terms = []
            for l in range(1, max(mults) + 1):
                poles = [n for n, r_n in enumerate(mults) if r_n >= l]
                kernel = _pole_kernel(l, betas[:, poles].ravel()).reshape(-1, len(poles))
                terms += [coeffs[n][l - 1] * kernel[:, i] for i, n in enumerate(poles)]
            # the sum is exactly rounded, so the order of its terms is free
            capacity[expandable[members]] *= _trusted_sums(np.stack(terms, axis=1))
        untrusted = np.flatnonzero(~((capacity > 0.0) & (capacity < math.inf)))
    if untrusted.size:
        capacity[untrusted] = _survival_quadrature(rows[untrusted])
    return capacity


def per_hop_capacity(alpha_k, hop_count: int):
    """Time-shared Shannon capacity of a single hop, element by element
    for an array; min over hops bounds the end-to-end capacity from above."""
    al = np.asarray(alpha_k, dtype=float)
    if np.any(al <= 0):
        raise ValueError("alpha must be positive")
    if hop_count < 1:
        raise ValueError("hop_count must be >= 1")
    value = al * capacity_pole_integral(1, al) / hop_count
    return float(value) if np.ndim(value) == 0 else value


# ---------------------------------------------------------------------------
# expansion internals


def _checked_alphas(alphas) -> np.ndarray:
    al = np.asarray(alphas, dtype=float)
    if al.ndim == 0 or al.size == 0:
        raise ValueError("need at least one hop")
    if np.any(al <= 0):
        raise ValueError("alphas must be positive")
    return al


def _cluster_poles(rows: np.ndarray):
    """Each row sorted ascending, and whether each value merges into the
    cluster of the one before it: its relative gap to it is within
    _CLUSTER_TOL."""
    ordered = np.sort(rows, axis=1)
    return ordered, ordered[:, 1:] - ordered[:, :-1] <= _CLUSTER_TOL * ordered[:, 1:]


def _pole_pattern(merged) -> tuple[list[int], tuple[int, ...]]:
    """Column of each cluster's first (smallest) value, and multiplicities."""
    starts = [0] + [j + 1 for j, joins in enumerate(merged) if not joins]
    ends = starts[1:] + [len(merged) + 1]
    return starts, tuple(end - start for start, end in zip(starts, ends))


def _residue_coefficients(betas: np.ndarray, mults: tuple[int, ...]):
    """Coefficients A[n][l-1], each a column over the rows of betas (the
    distinct poles of points sharing the multiplicities mults), from
    residues of the survival product.

    The density is -(d/dg) prod_n (g+beta_n)^(-r_n) (times the
    prefactor), so A_{n,l} = l * c_{n,l} where c are the partial
    fractions of the product itself.  Derivatives of the off-pole factor
    h(g) = prod_{m != n} (g+beta_m)^(-r_m) at g = -beta_n follow from
    the log-derivative recurrence h^(i+1) = sum_j C(i,j) h^(j) g^(i+1-j)
    with g = log h, whose derivatives are explicit pole sums.
    """
    count, size = betas.shape
    # gaps[:, n, m] = beta_m - beta_n; the diagonal is set to 1 so that
    # its powers are exactly 1 and leave the products below unchanged
    gaps = betas[:, None, :] - betas[:, :, None]
    gaps[:, range(size), range(size)] = 1.0
    h0 = np.prod(libm_pow(gaps, [-r for r in mults]), axis=2)
    logder: dict = {}  # (n, j) -> j-th log-derivative at -beta_n
    for j in range(1, max(mults)):
        powers = libm_pow(gaps, j)
        numerators = [r_m * (-1.0) ** (j - 1) * math.factorial(j - 1) for r_m in mults]
        for n in (n for n, r_n in enumerate(mults) if r_n > j):
            total = np.zeros(count)
            for m in range(size):
                if m != n:
                    total = total + numerators[m] / powers[:, n, m]
            logder[n, j] = -total if size > 1 else total
    coeffs = []
    for n, r_n in enumerate(mults):
        h = [h0[:, n]]
        for i in range(r_n - 1):
            h.append(row_fsum(np.stack([
                math.comb(i, j) * h[j] * logder[n, i + 1 - j] for j in range(i + 1)
            ], axis=-1)))
        coeffs.append([
            l * h[r_n - l] / math.factorial(r_n - l) for l in range(1, r_n + 1)
        ])
    return coeffs


# ---------------------------------------------------------------------------
# fallbacks


def _trusted_sums(terms: np.ndarray) -> np.ndarray:
    """math.fsum of each row of terms, or nan where a term is not finite,
    the partial sums overflow, or the terms cancel by more than
    _CANCEL_LIMIT."""
    totals = np.full(len(terms), math.nan)
    finite = np.isfinite(terms).all(axis=1)
    totals[finite] = row_fsum(terms[finite])
    totals[np.abs(terms).max(axis=1) > _CANCEL_LIMIT * np.abs(totals)] = math.nan
    return totals


def _survival_quadrature(rows: np.ndarray) -> np.ndarray:
    """Capacity of each row of (P, K) alphas as (1/(K ln 2)) int_0^inf
    S(g)/(1+g) dg, S the survival function prod_k alpha_k/(g+alpha_k)
    (integration by parts).

    In t = ln g the integrand is (g/(1+g)) prod_k 1/(1+g/alpha_k): every
    factor lies in (0, 1], so nothing overflows or cancels.  It is
    analytic in a strip around the real axis and decays exponentially at
    both ends, so the trapezoid rule converges geometrically in 1/h
    (Trefethen & Weideman, SIAM Review 2014).  Against a 40-digit
    reference on 60 random sets (alpha 1e-30..1e30, K <= 64; spread,
    clustered and equal) the relative error is below 9e-16 at h = 0.25;
    h = 0.4 gives 4e-11 and h = 0.5 1e-8.  Each row's limits leave 40
    e-folds past its outermost pole (and ln K more below, where
    S ~ 1 - g*sum(1/alpha)), so the end values are below 1e-17 of the sum
    and need no trapezoid half weights.

    The nodes are the multiples of h inside those limits, so rows share
    them and each node's e^t is one math.exp per call.  Each row sums only
    its own nodes, with + - * / alone, so it gets the same bits alone as in
    any batch.  A row whose nodes pass _EXP_MAX takes the integrand in
    logs instead.
    """
    count, k = rows.shape
    low = np.minimum(libm(math.log, rows.min(axis=1)), 0.0) - _QUAD_MARGIN - math.log(k)
    high = np.maximum(libm(math.log, rows.max(axis=1)), 0.0) + _QUAD_MARGIN
    first = np.floor(low / _QUAD_STEP).astype(int)
    last = np.ceil(high / _QUAD_STEP).astype(int)
    width = last - first + 1
    sums = np.empty(count)
    wide = last * _QUAD_STEP > _EXP_MAX
    for i in np.flatnonzero(wide):
        sums[i] = _log_integrand(rows[i], first[i], width[i]).sum()
    narrow = np.flatnonzero(~wide)
    if narrow.size:
        origin = first[narrow].min()
        g_nodes = libm(math.exp, np.arange(origin, last[narrow].max() + 1) * _QUAD_STEP)
        step = max(1, _QUAD_BLOCK // width.max())
        for start in range(0, narrow.size, step):
            block = narrow[start:start + step]
            sums[block] = _product_sums(rows[block], g_nodes, first[block] - origin, width[block])
    return _QUAD_STEP * sums / (k * _LN2)


def _product_sums(rows: np.ndarray, g_nodes: np.ndarray, offsets: np.ndarray,
                  width: np.ndarray) -> np.ndarray:
    """Each row's sum of the quadrature's integrand
    (g/(1+g)) prod_k 1/(1+g/alpha_k) over its width nodes, whose g are
    g_nodes from its offset on."""
    # nodes past a row's last are clipped and never summed
    g = g_nodes.take(offsets[:, None] + np.arange(width.max()), mode="clip")
    denominator = 1.0 + g
    hops = max(1, _QUAD_BLOCK // g.size)
    with np.errstate(over="ignore"):
        for first_hop in range(0, rows.shape[1], hops):
            factors = g / rows[:, first_hop:first_hop + hops].T[:, :, None]
            factors += 1.0
            for factor in factors:
                denominator *= factor
    f = np.divide(g, denominator, out=denominator)
    return np.array([f[j, :n].sum() for j, n in enumerate(width)])


def _log_integrand(al: np.ndarray, first: int, width: int) -> np.ndarray:
    """The quadrature's integrand at its nodes t = j*h, j from first on,
    as exp(-log(1+e^-t) - sum_k log(1+e^(t - ln alpha_k)))."""
    t = np.arange(first, first + width) * _QUAD_STEP
    log_f = -np.logaddexp(0.0, -t)
    for log_alpha in np.log(al):
        log_f -= np.logaddexp(0.0, t - log_alpha)
    return np.exp(log_f)
