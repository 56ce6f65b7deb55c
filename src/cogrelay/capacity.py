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
* Evaluations that still cancel heavily (adversarial cluster spacings)
  are transparently redone in extended precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp
import numpy as np

from .errors import NumericError

_LN2 = math.log(2.0)
_SERIES_RADIUS = 0.5       # switch between series and closed-form kernel
_CANCEL_LIMIT = 1e6        # max |term| / |sum| tolerated in float64


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

    def reconstruct(self, gamma: float) -> float:
        """Evaluate the expansion at gamma.

        Falls back to extended precision when the float64 terms cancel
        too heavily to trust, which happens when poles lie just outside
        the merge tolerance of each other.
        """
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        vals = [
            self.prefactor * a / (gamma + beta) ** (l + 1)
            for beta, l, a in self.terms()
        ]
        total = math.fsum(vals)
        scale = max(abs(v) for v in vals)
        if scale <= _CANCEL_LIMIT * abs(total):
            return total
        return float(_reconstruct_mp(self, gamma))


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
    betas, mults = _cluster_poles(al, cluster_tol)
    coeffs = _residue_coefficients(betas, mults)
    return PartialFractionExpansion(
        betas=tuple(betas),
        multiplicities=tuple(int(r) for r in mults),
        coefficients=tuple(tuple(c) for c in coeffs),
        prefactor=float(np.prod(al)),
    )


def capacity_pole_integral(order: int, pole: float) -> float:
    """Kernel int_0^inf log2(1+g)/(pole+g)^(order+1) dg, always positive."""
    l = order
    if not isinstance(l, int) or l < 1:
        raise ValueError("order must be a positive integer")
    if pole <= 0:
        raise ValueError("pole must be positive")
    delta = pole - 1.0
    if delta == 0.0:
        return 1.0 / (l * l * _LN2)
    if abs(delta) <= _SERIES_RADIUS:
        series = _kernel_series(l, delta)
        if series is None:
            # high orders make the alternating series cancel internally
            return float(_converged_mp(lambda: _pole_integral_mp(l, pole)))
        return series / (l * _LN2)
    tail = sum(
        1.0 / (delta ** k * (l - k) * pole ** (l - k)) for k in range(1, l)
    )
    return (math.log(pole) / delta ** l - tail) / (l * _LN2)


def _kernel_series(l: int, delta: float):
    # int_0^1 u^(l-1) (1 + delta*u)^(-l) du as a binomial series in delta;
    # geometric convergence for |delta| <= 1/2.  Returns None when the
    # partial sums cancel too heavily for float64 (large l, |delta| near
    # the radius), signalling the extended-precision path.
    coeff = 1.0
    total = 0.0
    largest = 0.0
    for m in range(1200):
        term = coeff / (l + m)
        total += term
        largest = max(largest, abs(term))
        if abs(term) < 1e-18 * max(abs(total), 1e-300):
            if largest > _CANCEL_LIMIT * abs(total):
                return None
            return total
        coeff *= -delta * (l + m) / (m + 1)
    raise NumericError("capacity kernel series failed to converge")


def ergodic_capacity_ind(
    alphas: Sequence[float], cluster_tol: float = 1e-6
) -> float:
    """Closed-form ergodic capacity (bits/s/Hz) for non-identical hops."""
    al = _checked_alphas(alphas)
    k = len(al)
    expansion = partial_fraction_expand(al, cluster_tol)
    vals = [
        a * capacity_pole_integral(l, beta) for beta, l, a in expansion.terms()
    ]
    total = math.fsum(vals)
    scale = max(abs(v) for v in vals)
    if scale > _CANCEL_LIMIT * abs(total):
        betas = np.asarray(expansion.betas)
        mults = np.asarray(expansion.multiplicities)
        total = float(_weighted_kernel_sum_mp(betas, mults))
    return expansion.prefactor / k * total


def ergodic_capacity_iid(alpha: float, hop_count: int) -> float:
    """Ergodic capacity for identical hops: alpha^K * kernel(K, alpha)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if hop_count < 1:
        raise ValueError("hop_count must be >= 1")
    return alpha ** hop_count * capacity_pole_integral(hop_count, alpha)


def per_hop_capacity(alpha_k: float, hop_count: int) -> float:
    """Time-shared Shannon capacity of a single hop; min over hops bounds
    the end-to-end capacity from above."""
    if alpha_k <= 0:
        raise ValueError("alpha must be positive")
    if hop_count < 1:
        raise ValueError("hop_count must be >= 1")
    return alpha_k * capacity_pole_integral(1, alpha_k) / hop_count


# ---------------------------------------------------------------------------
# expansion internals


def _checked_alphas(alphas) -> np.ndarray:
    al = np.asarray(list(alphas), dtype=float)
    if al.size == 0:
        raise ValueError("need at least one hop")
    if np.any(al <= 0):
        raise ValueError("alphas must be positive")
    return al


def _cluster_poles(al: np.ndarray, tol: float):
    """Ascending distinct poles with multiplicities, merging values whose
    relative gap to the previous cluster member is within tol."""
    if tol < 0:
        raise ValueError("cluster_tol must be non-negative")
    betas: list[float] = []
    mults: list[int] = []
    last = None
    for a in np.sort(al):
        if last is not None and a - last <= tol * max(a, last):
            mults[-1] += 1
            last = a
            continue
        betas.append(float(a))
        mults.append(1)
        last = a
    return np.asarray(betas), np.asarray(mults, dtype=int)


def _residue_coefficients(betas: np.ndarray, mults: np.ndarray):
    """Coefficients A[n][l-1] from residues of the survival product.

    The density is -(d/dg) prod_n (g+beta_n)^(-r_n) (times the
    prefactor), so A_{n,l} = l * c_{n,l} where c are the partial
    fractions of the product itself.  Derivatives of the off-pole factor
    h(g) = prod_{m != n} (g+beta_m)^(-r_m) at g = -beta_n follow from
    the log-derivative recurrence h^(i+1) = sum_j C(i,j) h^(j) g^(i+1-j)
    with g = log h, whose derivatives are explicit pole sums.
    """
    n_poles = len(betas)
    coeffs = []
    for n in range(n_poles):
        r_n = int(mults[n])
        others = [(betas[m], int(mults[m])) for m in range(n_poles) if m != n]
        h = np.zeros(r_n)
        h[0] = math.prod((bm - betas[n]) ** (-rm) for bm, rm in others) if others else 1.0
        logder = np.zeros(r_n)
        for j in range(1, r_n):
            fact = math.factorial(j - 1)
            logder[j] = -sum(
                rm * (-1.0) ** (j - 1) * fact / (bm - betas[n]) ** j
                for bm, rm in others
            )
        for i in range(r_n - 1):
            h[i + 1] = math.fsum(
                math.comb(i, j) * h[j] * logder[i + 1 - j] for j in range(i + 1)
            )
        row = [
            l * h[r_n - l] / math.factorial(r_n - l) for l in range(1, r_n + 1)
        ]
        coeffs.append(row)
    return coeffs


# ---------------------------------------------------------------------------
# extended-precision fallbacks


def _residue_coefficients_mp(betas, mults):
    n_poles = len(betas)
    coeffs = []
    for n in range(n_poles):
        r_n = int(mults[n])
        b_n = mp.mpf(betas[n])
        others = [(mp.mpf(betas[m]), int(mults[m])) for m in range(n_poles) if m != n]
        h = [mp.mpf(0)] * r_n
        h0 = mp.mpf(1)
        for bm, rm in others:
            h0 *= (bm - b_n) ** (-rm)
        h[0] = h0
        logder = [mp.mpf(0)] * r_n
        for j in range(1, r_n):
            fact = mp.factorial(j - 1)
            logder[j] = -mp.fsum(
                rm * (-1) ** (j - 1) * fact / (bm - b_n) ** j for bm, rm in others
            )
        for i in range(r_n - 1):
            h[i + 1] = mp.fsum(
                mp.binomial(i, j) * h[j] * logder[i + 1 - j] for j in range(i + 1)
            )
        coeffs.append(
            [l * h[r_n - l] / mp.factorial(r_n - l) for l in range(1, r_n + 1)]
        )
    return coeffs


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


def _weighted_kernel_sum_mp(betas, mults):
    def evaluate():
        coeffs = _residue_coefficients_mp(betas, mults)
        return mp.fsum(
            coeffs[n][l - 1] * _pole_integral_mp(l, betas[n])
            for n in range(len(betas))
            for l in range(1, int(mults[n]) + 1)
        )

    return _converged_mp(evaluate)


def _reconstruct_mp(expansion: PartialFractionExpansion, gamma: float):
    betas = expansion.betas
    mults = expansion.multiplicities

    def evaluate():
        coeffs = _residue_coefficients_mp(betas, mults)
        g = mp.mpf(gamma)
        total = mp.fsum(
            coeffs[n][l - 1] / (g + mp.mpf(betas[n])) ** (l + 1)
            for n in range(len(betas))
            for l in range(1, int(mults[n]) + 1)
        )
        return mp.mpf(expansion.prefactor) * total

    return _converged_mp(evaluate)
