"""Ergodic capacity of the weakest-hop SNR approximation.

The end-to-end PDF is a rational function with poles at the negated
per-hop scale parameters.  Expanding it in partial fractions reduces
the capacity integral to a weighted sum of one closed-form kernel per
pole and multiplicity.

Numerical notes, earned the hard way:

* Expansion coefficients are computed by residue calculus through a
  log-derivative recurrence.
* Near-coincident poles are merged into one pole of higher multiplicity
  before expanding; unmerged near-duplicates would produce gigantic
  cancelling coefficients.
* The pole kernel has a removable singularity at pole = 1; a power
  series in (pole - 1) is used on |pole - 1| <= 1/2 because the closed
  form loses all precision to cancellation there once the multiplicity
  exceeds 2.
* Where that float64 sum cannot be trusted, the capacity is computed
  instead from the survival integral (1/(K ln 2)) int S(g)/(1+g) dg,
  S(g) = prod_k alpha_k/(g+alpha_k), by the trapezoid rule in ln g.
  This route is taken when a term is not finite (long chains overflow
  the residue coefficients, or a pole kernel leaves the float64 range),
  when the terms cancel by more than _CANCEL_LIMIT (poles just outside
  the merge tolerance of each other), or when the result is not in
  (0, inf) (the prefactor prod(alpha) overflowed or underflowed).
* A sweep is evaluated in one call: alphas of shape (P, K) hold P
  chains.  Chains with the same pattern of pole multiplicities share one
  vectorized expansion and one kernel call per order, with every
  elementary function and sum rounded as the one-chain call rounds it,
  so each chain gets the bits of its own call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp
import numpy as np

from .errors import NumericError
from .numerics import libm, row_fsum

_LN2 = math.log(2.0)
_SERIES_RADIUS = 0.5       # switch between series and closed-form kernel
_CANCEL_LIMIT = 1e6        # max |term| / |sum| tolerated in float64
_KERNEL_CANCEL_LIMIT = 1e3  # same, inside the closed-form pole kernel
_QUAD_STEP = 0.25          # survival quadrature step in ln(gamma)
_QUAD_MARGIN = 40.0        # e-folds integrated past the outermost pole


def min_snr_pdf(gamma: float, alphas: Sequence[float]) -> float:
    """Density of min-over-hops SNR at gamma.

    Evaluated as sum_k [prod_n alpha_n/(gamma+alpha_n)] / (gamma+alpha_k),
    a form whose factors all lie in (0, 1] so it neither overflows nor
    cancels.
    """
    al = _checked_alphas(alphas)
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    survival = np.prod(al / (gamma + al))
    return float(survival * np.sum(1.0 / (gamma + al)))


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


def partial_fraction_expand(
    alphas: Sequence[float],
    cluster_tol: float = 1e-6,
) -> PartialFractionExpansion:
    """Expand the weakest-hop SNR density into partial fractions.

    Scale parameters within relative cluster_tol of each other are
    merged into a single pole with summed multiplicity; the coefficients
    come from residue calculus.
    """
    al = _checked_alphas(alphas)
    if al.ndim != 1:
        raise ValueError("alphas must be one chain's hops")
    ordered, merged = _cluster_poles(al[None, :], cluster_tol)
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
        series = _kernel_series(l, delta[near]) / (l * _LN2)
        for i in np.flatnonzero(np.isnan(series)):
            # high orders make the alternating series cancel internally
            p = float(pole[near[i]])
            series[i] = float(_converged_mp(lambda: _pole_integral_mp(l, p)))
        value[near] = series
    far = np.abs(delta) > _SERIES_RADIUS
    if far.any():
        value[far] = _kernel_closed_form(l, pole[far], delta[far])
    value[~((value > 0.0) & (value < math.inf))] = math.nan
    return value


def _kernel_closed_form(l: int, pole: np.ndarray, delta: np.ndarray) -> np.ndarray:
    # (log(pole)/delta^l - sum_k 1/(delta^k (l-k) pole^(l-k))) / (l ln 2),
    # nan wherever a power overflows or a divisor is 0
    delta_l = _pow(delta, l)
    failed = np.isinf(delta_l) | (delta_l == 0.0)
    lead = libm(math.log, pole) / delta_l
    tail = 0.0
    for k in range(1, l):
        delta_k, pole_k = _pow(delta, k), _pow(pole, l - k)
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
    # radius), signalling the extended-precision path.  Each element
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
    # its terms are positive, and where the closed form cancels x^l is
    # small, so they fall off fast.  nan where pole^l overflows.
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
    pole_l = _pow(pole, l)
    return np.where(np.isinf(pole_l), math.nan, result / pole_l)


def ergodic_capacity_ind(alphas, cluster_tol: float = 1e-6):
    """Closed-form ergodic capacity (bits/s/Hz) for non-identical hops.

    alphas of shape (K,) give a float, (P, K) a (P,) array.  Points are
    grouped by their pattern of pole multiplicities, and each group is
    expanded and summed at once.  Where the float64 partial-fraction sum
    of a point cannot be trusted, the survival-integral quadrature gives
    the same quantity instead.
    """
    al = _checked_alphas(alphas)
    rows = al.reshape(-1, al.shape[-1])
    k = rows.shape[1]
    # overflow is judged from the values, so numpy need not warn about it
    with np.errstate(all="ignore"):
        prefactor = np.prod(rows, axis=1)
        capacity = prefactor / k
        # prod(alpha) at 0 or inf would only lead to the quadrature
        expandable = np.flatnonzero((prefactor > 0.0) & (prefactor < math.inf))
        ordered, merged = _cluster_poles(rows[expandable], cluster_tol)
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
    for i in untrusted:
        capacity[i] = _survival_quadrature(rows[i])
    return float(capacity[0]) if al.ndim == 1 else capacity.reshape(al.shape[:-1])


def ergodic_capacity_iid(alpha: float, hop_count: int) -> float:
    """Ergodic capacity for identical hops, alpha^K * kernel(K, alpha),
    as the special case of ergodic_capacity_ind."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if hop_count < 1:
        raise ValueError("hop_count must be >= 1")
    return ergodic_capacity_ind([alpha] * hop_count)


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


def _cluster_poles(rows: np.ndarray, tol: float):
    """Each row sorted ascending, and whether each value merges into the
    cluster of the one before it: its relative gap to it is within tol."""
    if tol < 0:
        raise ValueError("cluster_tol must be non-negative")
    ordered = np.sort(rows, axis=1)
    return ordered, ordered[:, 1:] - ordered[:, :-1] <= tol * ordered[:, 1:]


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
    h0 = np.prod(_pow(gaps, [-r for r in mults]), axis=2)
    logder: dict = {}  # (n, j) -> j-th log-derivative at -beta_n
    for j in range(1, max(mults)):
        powers = _pow(gaps, j)
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


def _pow(x: np.ndarray, n) -> np.ndarray:
    """x ** n element by element (n an int or ints broadcast against x),
    as the C library's pow rounds it, with inf where it overflows.

    numpy's array power takes other routes, such as 1/x for n = -1 or
    SIMD kernels, that differ from pow in the last bit.
    """
    if isinstance(n, int) and n == 1:
        return x
    exponents = np.broadcast_to(n, x.shape)
    try:
        values = np.fromiter(map(math.pow, x.flat, exponents.flat), float, x.size)
    except (OverflowError, ValueError):
        values = np.fromiter(
            (np.float64(v) ** e for v, e in zip(x.flat, exponents.flat)), float, x.size
        )
    return values.reshape(x.shape)


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


def _survival_quadrature(al: np.ndarray) -> float:
    """Capacity as (1/(K ln 2)) int_0^inf S(g)/(1+g) dg, S the survival
    function prod_k alpha_k/(g+alpha_k) (integration by parts).

    With g = e^t the integrand is exp(-log(1+e^-t) - sum_k log(1+e^(t -
    ln alpha_k))): every factor lies in (0, 1], so nothing overflows or
    cancels.  It is analytic in a strip around the real axis and decays
    exponentially at both ends, so the trapezoid rule converges
    geometrically in 1/h (Trefethen & Weideman, SIAM Review 2014).
    Against a 40-digit reference on 60 random sets (alpha 1e-30..1e30,
    K <= 64; spread, clustered and equal) the relative error is below
    6e-15 at h = 0.25; h = 0.4 gives 4e-11 and h = 0.5 1e-8.
    The limits leave 40 e-folds past the outermost pole (and ln K more
    below, where S ~ 1 - g*sum(1/alpha)), so the end values are below
    1e-17 of the sum and need no trapezoid half weights.
    """
    log_al = np.log(al)
    lo = min(log_al.min(), 0.0) - _QUAD_MARGIN - math.log(len(al))
    hi = max(log_al.max(), 0.0) + _QUAD_MARGIN
    n = math.ceil((hi - lo) / _QUAD_STEP)
    t = np.linspace(lo, hi, n + 1)
    log_f = -np.logaddexp(0.0, -t) - np.logaddexp(0.0, t - log_al[:, None]).sum(axis=0)
    return (hi - lo) / n * math.fsum(np.exp(log_f).tolist()) / (len(al) * _LN2)


def _pole_integral_mp(order: int, pole):
    l = order
    pole = mp.mpf(pole)
    ln2 = mp.log(2)
    delta = pole - 1
    if delta == 0:
        return 1 / (mp.mpf(l) ** 2 * ln2)
    if abs(delta) <= _SERIES_RADIUS:
        coeff = mp.mpf(1)
        total = mp.mpf(0)
        for m in range(2000):
            term = coeff / (l + m)
            total += term
            if abs(term) < mp.mpf(10) ** (-mp.mp.dps - 2) * abs(total):
                break
            coeff *= -delta * (l + m) / (m + 1)
        return total / (l * ln2)
    tail = mp.fsum(
        1 / (delta ** k * (l - k) * pole ** (l - k)) for k in range(1, l)
    )
    return (mp.log(pole) / delta ** l - tail) / (l * ln2)


def _converged_mp(evaluate) -> mp.mpf:
    """Run `evaluate` at doubling precision until two runs agree."""
    prev = None
    for dps in (40, 80, 160):
        with mp.workdps(dps):
            cur = evaluate()
        if prev is not None and (
            cur == prev or abs(cur - prev) <= mp.mpf(1e-13) * abs(cur)
        ):
            return cur
        prev = cur
    return prev
