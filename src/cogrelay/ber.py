"""Square M-QAM bit error rate: instantaneous, per-hop average, end-to-end.

The per-hop average over the fading law has a closed form whose raw
shape contains exp(w*a)*erfc(sqrt(w*a)); it is evaluated through the
scaled complementary error function so it cannot overflow even for
astronomically large SNR scale parameters, and through its asymptotic
series where that form cancels.  The per-hop forms work element by
element; the end-to-end forms take a chain's hops along the last axis,
with any leading axes as points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import checked_alphas, libm

_SQRT_PI = math.sqrt(math.pi)
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter of a double into halves
# From x^2 = w*alpha = 100 on, 1 - sqrt(pi) x erfcx(x) is summed as its
# asymptotic series; 12 terms keep the relative error below 4e-14 there.
_TAIL_X2 = 100.0
_TAIL_FACTORS = tuple(range(23, 1, -2))  # 2m - 1 for m = 12, ..., 2


@dataclass(frozen=True)
class QamConstants:
    """Coefficient table for square M-QAM bit error expressions.

    terms holds (j, n, upsilon_j, omega_n, phi_n_j) for every summand of
    the Gray-mapped BER expansion, in table order; omega_n depends on n
    only, so omegas[n] is the omega of every term with that n, and
    weights[n] their phis summed in table order.  a and b parameterize
    the dominant erfc term, the only one the high-SNR asymptote keeps.
    """

    qam_order: int
    terms: tuple[tuple[int, int, int, float, float], ...]
    omegas: tuple[float, ...]
    weights: tuple[float, ...]
    a: float
    b: float
    denominator: float  # sqrt(M) * log2(sqrt(M))


def qam_constants(qam_order: int) -> QamConstants:
    """Materialize every coefficient for a square QAM order (4, 16, 64, ...)."""
    m = qam_order
    if not isinstance(m, int) or m < 4 or 4 ** round(math.log(m, 4)) != m:
        raise ValueError(f"qam_order must be a power of 4, got {m!r}")
    sqrt_m = math.isqrt(m)
    bits_per_axis = int(math.log2(sqrt_m))
    # n runs up to upsilon_j, which grows with j to sqrt(M) - 2
    omegas = tuple((2 * n + 1) ** 2 * 3.0 * math.log2(m) / (2.0 * m - 2.0)
                   for n in range(sqrt_m - 1))
    terms = []
    weights = [0.0] * len(omegas)
    for j in range(1, bits_per_axis + 1):
        upsilon = round((1.0 - 2.0 ** (-j)) * sqrt_m - 1.0)
        for n in range(upsilon + 1):
            shifted = n * 2 ** (j - 1) / sqrt_m
            phi = (-1.0) ** math.floor(shifted) * (
                2 ** (j - 1) - math.floor(shifted + 0.5)
            )
            terms.append((j, n, upsilon, omegas[n], phi))
            weights[n] += phi
    a = (sqrt_m - 1.0) / (sqrt_m * math.log2(sqrt_m))
    b = 3.0 * math.log2(m) / (2.0 * (m - 1.0))
    return QamConstants(
        qam_order=m,
        terms=tuple(terms),
        omegas=omegas,
        weights=tuple(weights),
        a=a,
        b=b,
        denominator=sqrt_m * math.log2(sqrt_m),
    )


def instantaneous_ber(gamma, constants: QamConstants):
    """BER of the AWGN channel at instantaneous SNR gamma (scalar or array).

    Terms sharing an omega share one erfc evaluation, the C library's
    (numerics.libm); the terms are still added in their table order, so
    the sum keeps its rounding.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("gamma must be non-negative")
    erfcs = [libm(math.erfc, np.sqrt(omega * g)) for omega in constants.omegas]
    acc = np.zeros_like(g)
    for _, n, _, _, phi in constants.terms:
        acc += phi * erfcs[n]
    acc /= constants.denominator
    np.clip(acc, 0.0, 1.0, out=acc)
    return float(acc) if np.isscalar(gamma) else acc


def hop_ber(alpha, constants: QamConstants):
    """Average BER of one hop with SNR scale parameter alpha, element by
    element for an array.

    Each summand 1 - sqrt(pi)*x*erfcx(x), x = sqrt(w*alpha), is the
    fading average of erfc(sqrt(w*gamma)); erfcx keeps it finite for any
    alpha.  It cancels as x grows, so from x^2 = 100 on the summand is
    the asymptotic series sum_{m>=1} (-1)^(m+1) (2m-1)!!/(2x^2)^m
    (Abramowitz & Stegun 7.1.23) instead.  Terms sharing an omega share
    one summand and are still added in table order.  At alpha = +inf
    every summand is 0 (u = 1/(2x^2) = 0), so a padded hop has BER 0.
    Near alpha = 0 the sum tends to 1/2 and can round an ulp above it,
    so it is clamped there.
    """
    al = np.asarray(alpha, dtype=float)
    if np.any(al <= 0):
        raise ValueError("alpha must be positive")
    flat = al.reshape(-1)
    summands = [_summand(omega * flat) for omega in constants.omegas]
    acc = 0.0
    for _, n, _, _, phi in constants.terms:
        acc = acc + phi * summands[n]
    value = np.minimum(acc / constants.denominator, 0.5).reshape(al.shape)
    return float(value) if value.ndim == 0 else value


def _summand(x2: np.ndarray) -> np.ndarray:
    """1 - sqrt(pi) x erfcx(x) from x^2: through erfcx below _TAIL_X2,
    by the asymptotic series from there on."""
    term = np.empty_like(x2)
    tail = x2 >= _TAIL_X2
    root = np.sqrt(x2[~tail])
    term[~tail] = 1.0 - _SQRT_PI * root * erfcx(root)
    term[tail] = _erfcx_tail(x2[tail])
    return term


def erfcx(x) -> np.ndarray:
    """exp(x^2) erfc(x) for 0 <= x < 26, element by element, from the C
    library's erfc and exp (numerics.libm).

    x^2 is split exactly into hi + lo (Dekker's product) and exp(x^2) is
    taken as exp(hi)(1 + lo): exp of the rounded square would lose
    x^2*eps, which the cancellation in 1 - sqrt(pi) x erfcx(x) then
    multiplies by up to 2x^2.  Past x = 26 erfc(x) leaves the normal
    range and exp(x^2) overflows near 26.6.
    """
    x = np.asarray(x, dtype=float)
    hi = x * x
    big = _SPLIT * x
    x_hi = big - (big - x)
    x_lo = x - x_hi
    lo = ((x_hi * x_hi - hi) + 2.0 * x_hi * x_lo) + x_lo * x_lo
    return libm(math.erfc, x) * (libm(math.exp, hi) * (1.0 + lo))


def _erfcx_tail(x2: np.ndarray) -> np.ndarray:
    """1 - sqrt(pi) x erfcx(x) from x^2, by 12 terms of its asymptotic
    series in u = 1/(2x^2), nested as u(1 - 3u(1 - 5u(... (1 - 23u))))."""
    u = 0.5 / x2
    nested = np.ones_like(u)
    for factor in _TAIL_FACTORS:
        nested = 1.0 - factor * u * nested
    return u * nested


def e2e_ber(per_hop_bers):
    """End-to-end BER: probability of an odd number of hop bit errors.

    Hops lie along the last axis: (K,) gives a float, (P, K) a (P,) array.
    The recursion runs from the last hop back, so trailing hops of BER 0
    (hop_ber of a +inf pad) leave its accumulator at 0 and every bit of
    the result unchanged.
    """
    bers = np.asarray(per_hop_bers, dtype=float)
    if bers.ndim == 0 or bers.shape[-1] == 0:
        raise ValueError("need at least one hop")
    if not np.all((0.0 <= bers) & (bers <= 0.5)):
        raise ValueError("per-hop BERs must lie in [0, 0.5]")
    acc = 0.0
    for p in np.moveaxis(bers, -1, 0)[::-1]:
        acc = p + (1.0 - 2.0 * p) * acc
    return float(acc) if np.ndim(acc) == 0 else acc


def e2e_ber_asymptotic(alphas, constants: QamConstants):
    """High-SNR end-to-end BER (a/2b) * sum_k 1/alpha_k.

    It keeps only the dominant erfc term of the BER expansion.  For QPSK
    that is the only term, and this is the high-SNR limit of the exact
    BER.  For larger orders every term adds phi/(2 omega alpha) per hop,
    so it is not: at alpha = 1e10 on three hops, exact/asymptote is
    1.061 for 16-QAM, 1.090 for 64-QAM and 1.105 for 256-QAM.

    Hops lie along the last axis: (K,) gives a float, (P, K) a (P,) array.
    An alpha of +inf adds 1/inf = 0 to the sum.
    """
    al = checked_alphas(alphas)
    with np.errstate(over="ignore"):  # beyond the double range the asymptote is inf
        value = (constants.a / (2.0 * constants.b)) * sum(np.moveaxis(1.0 / al, -1, 0))
    return float(value) if np.ndim(value) == 0 else value
