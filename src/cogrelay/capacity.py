"""Ergodic capacity of the weakest-hop SNR approximation.

With the weakest hop's survival function S(g) = prod_k alpha_k/(g+alpha_k),
integration by parts turns the capacity into

    C = (1/(K ln 2)) int_0^inf S(g)/(1+g) dg.

Two routes evaluate it; each chain's own number of hops K picks one.

* K <= 4: the paper's closed form for non-identical hops.  Every pole is
  simple, S(g) = prod(alpha) sum_n c_n/(g+alpha_n) with
  c_n = 1/prod_{m!=n}(alpha_m - alpha_n), and
  int_0^inf dg/((1+g)(g+alpha)) = ln(alpha)/(alpha-1), so
  C = prod(alpha)/(K ln 2) * sum_n t_n, t_n = c_n ln(alpha_n)/(alpha_n-1).
  A row keeps this sum only where an a-priori bound holds it within
  1e-13 (_closed_form); every other row takes the quadrature.
* K >= _QUADRATURE_HOPS (5), and the rows the closed form does not keep:
  the trapezoid rule in ln g on the integral above
  (_survival_quadrature).  Its integrand is a product of factors in
  (0, 1], so it keeps its relative accuracy on every chain, equal and
  clustered hops included.

A sweep is evaluated in one call: alphas of shape (P, K) hold P chains,
and each chain gets the bits of its own call.  Chains of different
lengths share one call as rows padded with alpha = +inf past their own
hop counts (ergodic_capacity_ind's hop_counts): a padded hop's factor
1 + g/inf is exactly 1, and the route, the quadrature's limits and the
1/(K ln 2) follow each row's own K, so a padded row keeps its bits too.

The general partial-fraction expansion, with near-equal poles merged
into poles of higher order, survives only as partial_fraction_expand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError
from .numerics import checked_alphas, libm, libm_pow, row_fsum

_LN2 = math.log(2.0)
# Chains of this many hops or more take the survival quadrature: from
# K = 5 on the closed form's terms cancel on most chains, and below it the
# closed form is the faster route on long sweeps of short chains.
_QUADRATURE_HOPS = 5
_CANCEL_LIMIT = 64.0       # max sum|t_n| / |sum t_n| the closed form keeps
_CLUSTER_TOL = 1e-6        # relative gap within which expanded poles merge
_QUAD_STEP = 0.25          # survival quadrature step in ln(gamma)
# The survival quadrature's error budget in e-folds (_survival_quadrature):
# its last node is 40/K + 2 ln 2 e-folds above max(ln alpha_max, 0), where
# the integrand is below e^-40 of its peak; a row whose overflowing nodes
# could hold e^-40 of its sum takes the integrand in logs.  Below
# s*g = _QUAD_TAU, s = 1 + sum(1/alpha), the nodes are summed in closed
# form, within 0.42 tau^2 of that tail and about 1e-24 of the sum.
_QUAD_MARGIN = 40.0
_QUAD_TAU = 2.0 ** -27
_QUAD_BLOCK = 1 << 14      # values in each quadrature working array
_EXP_MAX = 709.0           # math.exp overflows just above this
_LOG_MAX = math.log(np.finfo(float).max)  # a product overflows past e^this
_TINY = np.finfo(float).tiny  # smallest normal double


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
    come from residue calculus.  No capacity route uses it.
    """
    al = checked_alphas(alphas)
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

    Integrated by parts, it is (1/(order ln 2)) int_0^inf
    dg/((1+g)(pole+g)^order): the capacity of order equal hops at pole,
    divided by pole^order.  Raises NumericError when that value is
    outside the float64 range, as it is at high orders for poles far
    from 1.
    """
    l = order
    if not isinstance(l, int) or l < 1:
        raise ValueError("order must be a positive integer")
    poles = np.asarray(pole, dtype=float)
    if np.any(poles <= 0):
        raise ValueError("pole must be positive")
    flat = poles.reshape(-1)
    # pole^order as mantissa^order * 2^(exponent*order): no intermediate
    # leaves the float64 range before the quotient does
    mantissa, exponent = np.frexp(flat)
    with np.errstate(all="ignore"):
        scaled = _survival_quadrature(np.repeat(flat[:, None], l, axis=1), np.full(flat.size, l))
        value = np.ldexp(scaled / libm_pow(mantissa, l), -exponent * l)
    failed = ~((value > 0.0) & (value < math.inf))
    if failed.any():
        raise NumericError(
            f"capacity kernel of order {l} at pole {flat[failed][0]:.6g} "
            "is outside the float64 range"
        )
    return float(value[0]) if poles.ndim == 0 else value.reshape(poles.shape)


def ergodic_capacity_ind(alphas, hop_counts=None):
    """Ergodic capacity (bits/s/Hz) for non-identical hops.

    alphas of shape (K,) give a float, (P, K) a (P,) array.  hop_counts,
    one per chain (broadcast over the leading axes), make each chain its
    first hop_counts hops; the alphas past them must be +inf.  Shorter
    chains than _QUADRATURE_HOPS (5) take the paper's simple-pole closed
    form where it is provably accurate; every other chain takes the
    survival quadrature, all in one call.
    """
    al = checked_alphas(alphas)
    rows = al.reshape(-1, al.shape[-1])
    if hop_counts is None:
        counts = np.full(len(rows), rows.shape[1])
    else:
        counts = np.broadcast_to(hop_counts, al.shape[:-1]).reshape(-1)
    capacity = np.empty(len(rows))
    short = counts < _QUADRATURE_HOPS
    # a set, not np.unique, which imports numpy.ma: about 1 MB
    for k in sorted(set(counts[short].tolist())):
        chains = counts == k
        capacity[chains] = _closed_form(rows[chains, :k])
    quadrature = ~short | np.isnan(capacity)
    if quadrature.any():
        capacity[quadrature] = _survival_quadrature(rows[quadrature], counts[quadrature])
    return float(capacity[0]) if al.ndim == 1 else capacity.reshape(al.shape[:-1])


def _closed_form(rows: np.ndarray) -> np.ndarray:
    """ergodic_capacity_ind of (P, K) rows, K <= 4, as
    prod(alpha)/(K ln 2) * sum_n t_n, and NaN where that sum is not
    provably within 1e-13.

    The bound: with the inputs exact, each t_n = _log_ratio(alpha_n) /
    prod_{m!=n}(alpha_m - alpha_n) takes at most 9 roundings at K <= 4
    (3 gaps, 2 products, up to 3 in _log_ratio, the quotient); count 12
    to cover log's error of up to an ulp.  So each t_n is within 12u|t_n|
    to first order, u = 2^-53, and the exactly rounded sum within
    12u*sum|t_n| + u|sum t_n|.  A row is kept only where sum|t_n| <=
    _CANCEL_LIMIT * |sum t_n|, so the sum is within (64*12 + 1)u of exact,
    and the prefactor and the final quotient add about 5u: 774u < 8.6e-14
    in all.  A row is also dropped where prod(alpha) leaves the normal
    range or the result is not in (0, inf).  That leaves equal, clustered
    and cancelling hops, and the extremes of the range, to the quadrature,
    which has no such limits.
    """
    k = rows.shape[1]
    # overflow and division by a zero gap are judged from the values
    with np.errstate(all="ignore"):
        # gaps[:, n, m] = alpha_m - alpha_n; the diagonal is set to 1 so
        # that it leaves the product unchanged
        gaps = rows[:, None, :] - rows[:, :, None]
        gaps[:, range(k), range(k)] = 1.0
        terms = _log_ratio(rows) / np.prod(gaps, axis=2)
        totals = row_fsum(terms)
        prefactor = np.prod(rows, axis=1)
        capacity = prefactor * totals / (k * _LN2)
        # a product of two or more hops that rounds to a subnormal has lost bits
        exact_prefactor = (prefactor >= _TINY) | (k == 1)
        kept = ((np.abs(terms).sum(axis=1) <= _CANCEL_LIMIT * np.abs(totals))
                & exact_prefactor & (capacity > 0.0) & (capacity < math.inf))
    capacity[~kept] = math.nan
    return capacity


def per_hop_capacity(alpha_k, hop_count):
    """Time-shared Shannon capacity of a single hop,
    alpha ln(alpha)/((alpha - 1) K ln 2), element by element over the
    broadcast alphas and hop counts K; min over a chain's hops bounds its
    end-to-end capacity from above.  At one hop it is
    ergodic_capacity_ind([alpha]) bit for bit.  At alpha = +inf, the
    padding past a chain's hops, it is +inf, the limit: a pad bounds
    nothing, and no logarithm is taken there."""
    al = np.asarray(alpha_k, dtype=float)
    if np.any(al <= 0):
        raise ValueError("alpha must be positive")
    k = np.asarray(hop_count)
    if np.any(k < 1):
        raise ValueError("hop_count must be >= 1")
    value = np.full(al.shape, math.inf)
    finite = al < math.inf
    value[finite] = al[finite] * _log_ratio(al[finite])
    value = value / (k * _LN2)
    return float(value) if np.ndim(value) == 0 else value


def _log_ratio(alpha: np.ndarray) -> np.ndarray:
    """ln(alpha)/(alpha - 1) element by element, 1 at alpha = 1.

    Nothing cancels near the removable singularity: alpha - 1 is exact
    for alpha in [1/2, 2] (Sterbenz) and log of an exact input is within
    an ulp, so the quotient stays within 2u of exact there too, as
    log1p(alpha - 1)/(alpha - 1) would.
    """
    d = alpha - 1.0
    with np.errstate(invalid="ignore"):
        return np.where(d == 0.0, 1.0, libm(math.log, alpha) / d)


# ---------------------------------------------------------------------------
# expansion internals, behind partial_fraction_expand only


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
# the quadrature


def _survival_quadrature(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Capacity of each row of (P, K) alphas as (1/(K ln 2)) int_0^inf
    S(g)/(1+g) dg, S the survival function prod_k alpha_k/(g+alpha_k)
    (integration by parts), K the row's count of hops; its alphas past
    them are +inf, and their factors are exactly 1.

    In t = ln g the integrand is f = (g/(1+g)) prod_k 1/(1+g/alpha_k):
    every factor lies in (0, 1], so nothing overflows or cancels.  It is
    analytic in a strip around the real axis and decays exponentially at
    both ends, so the trapezoid rule converges geometrically in 1/h
    (Trefethen & Weideman, SIAM Review 2014).  Against a 40-digit
    reference on 304 random chains (alpha 1e-30..1e30, K <= 64; spread,
    clustered, equal and near-equal) the worst relative error seen is
    1.5e-15 at h = 0.25; h = 0.4 gives 4e-11 and h = 0.5 1e-8.

    Each row's nodes are the multiples of h between two limits.
    * Top: above T = max(ln alpha_max, 0) each factor 1/(1+g/alpha_k) is
      at most alpha_k/g, and at T at least alpha_k/(2g), so f(T + m) <=
      2 (2e^-m)^K f(T).  The last node is m = 40/K + 2 ln 2 above T, where
      f is below e^-40 of f(T); the nodes past it add at most 3.6 e^-40
      of f(T), so the end needs no trapezoid half weight.
    * Bottom: with s = 1 + sum_k 1/alpha_k, f(g) = g(1 - s g) to within
      s^2 g^3.  The explicit nodes start where s g passes tau = 2^-27,
      and the nodes below them, g0 e^-ih from the first node g0 below the
      start on, are summed in closed form as
      g0/(1 - e^-h) - s g0^2/(1 - e^-2h).  That tail is within 0.42 tau^2
      of its own value, and it is about 3 tau of the sum: about 1e-24 of
      the sum in all.  Where s overflows, the nodes run to 40 + ln K
      e-folds below min(ln alpha_min, 0), as a fixed limit, and no tail
      is added; the nodes left out add less than e^-36 of the sum.

    The nodes are shared by all rows, so each node's e^t is one math.exp
    per call.  Each row sums only its own nodes, with + - * / alone, and
    s is an exactly rounded sum, so it gets the same bits alone as in any
    batch.  Rows are taken in order of hop count, and at hop j only the
    rows with a hop j are multiplied: a pad's factor would be 1.

    The product of factors is formed as g over (1+g) prod_k (1+g/alpha_k),
    and where that denominator overflows, f comes out 0.  There f < g/DBL_MAX and f <= prod(alpha)/g^K, so over all such
    nodes it sums to at most 2 g_c/((1 - e^-h) DBL_MAX), with g_c^(K+1) =
    DBL_MAX prod(alpha); and the sum is at least e^-h/(4s), from the node
    just below g = 1/(2s).  A row whose lost part can pass e^-40 of its
    sum, or whose last node passes _EXP_MAX, takes the integrand in logs
    instead (_log_integrand).
    """
    h = _QUAD_STEP
    with np.errstate(divide="ignore"):
        s = 1.0 + row_fsum(1.0 / rows)  # nan where the sum overflows
    tail = s < math.inf
    log_s = np.empty(len(rows))
    log_s[tail] = libm(math.log, s[tail])
    first = np.empty(len(rows), dtype=int)
    first[tail] = np.floor((math.log(_QUAD_TAU) - log_s[tail]) / h).astype(int) + 1
    if not tail.all():
        # some alpha is below K/DBL_MAX here, so its log is negative
        log_min = libm(math.log, rows[~tail].min(axis=1))
        log_k = libm(math.log, counts[~tail])
        first[~tail] = np.floor((log_min - _QUAD_MARGIN - log_k) / h).astype(int)
        log_s[~tail] = libm(math.log, counts[~tail] + 1.0) - log_min  # bounds ln s
    # the largest finite alpha, or 1 if it is smaller: a padded +inf sets no limit
    largest = rows.max(axis=1, where=rows < math.inf, initial=1.0)
    high = libm(math.log, largest) + (_QUAD_MARGIN / counts + 2.0 * _LN2)
    last = np.ceil(high / h).astype(int)
    width = last - first + 1
    # sum ln alpha <= ln 2 * sum of the exponents e of alpha = m 2^e, m in [1/2, 1)
    # (frexp gives a pad's exponent as 0); this bounds ln g_c from above
    log_crossing = (_LOG_MAX + _LN2 * np.frexp(rows)[1].sum(axis=1)) / (counts + 1)
    # ln of the lost part's bound, less ln of the sum's bound
    lost = log_crossing - _LOG_MAX + math.log(8.0 / -math.expm1(-h)) + h + log_s
    wide = (lost > -_QUAD_MARGIN) | (last * h > _EXP_MAX)
    sums = np.empty(len(rows))
    for i in np.flatnonzero(wide):
        sums[i] = _log_integrand(rows[i, :counts[i]], first[i], width[i]).sum()
    # in order of hop count, so that a block's rows with a hop j are its last ones
    narrow = np.flatnonzero(~wide)
    narrow = narrow[np.argsort(counts[narrow], kind="stable")]
    if narrow.size:
        origin = first[narrow].min()
        g_nodes = libm(math.exp, np.arange(origin, last[narrow].max() + 1) * h)
        step = max(1, _QUAD_BLOCK // width[narrow].max())
        for start in range(0, narrow.size, step):
            block = narrow[start:start + step]
            sums[block] = _product_sums(rows[block], counts[block], g_nodes,
                                        first[block] - origin, width[block])
    g0 = libm(math.exp, (first[tail] - 1) * h)
    sums[tail] += g0 / -math.expm1(-h) - s[tail] * g0 * g0 / -math.expm1(-2.0 * h)
    return h * sums / (counts * _LN2)


def _product_sums(rows: np.ndarray, counts: np.ndarray, g_nodes: np.ndarray,
                  offsets: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Each row's sum of the quadrature's integrand
    (g/(1+g)) prod_k 1/(1+g/alpha_k) over its width nodes, whose g are
    g_nodes from its offset on; counts, the rows' hop counts, ascend."""
    # nodes past a row's last are clipped and never summed
    g = g_nodes.take(offsets[:, None] + np.arange(width.max()), mode="clip")
    denominator = 1.0 + g
    factor = np.empty_like(g)
    with np.errstate(over="ignore"):
        # the rows with a hop j are those from the first whose count passes j
        for j, start in enumerate(np.searchsorted(counts, np.arange(counts[-1]), side="right")):
            np.divide(g[start:], rows[start:, j, None], out=factor[start:])
            factor[start:] += 1.0
            denominator[start:] *= factor[start:]
    f = np.divide(g, denominator, out=denominator)
    # numpy sums each row of a 2-D array pairwise, as it sums that row alone
    sums = np.empty(len(width))
    for n in set(width.tolist()):
        same = width == n
        sums[same] = f[same, :n].sum(axis=1)
    return sums


def _log_integrand(al: np.ndarray, first: int, width: int) -> np.ndarray:
    """The quadrature's integrand at its nodes t = j*h, j from first on,
    as exp(-log(1+e^-t) - sum_k log(1+e^(t - ln alpha_k)))."""
    t = np.arange(first, first + width) * _QUAD_STEP
    log_f = -np.logaddexp(0.0, -t)
    for log_alpha in np.log(al):
        log_f -= np.logaddexp(0.0, t - log_alpha)
    return np.exp(log_f)
