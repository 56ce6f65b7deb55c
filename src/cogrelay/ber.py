"""Square M-QAM bit error rate: instantaneous, per-hop average, end-to-end.

The per-hop average over the fading law has a closed form whose raw
shape contains exp(w*a)*erfc(sqrt(w*a)); it is evaluated through the
scaled complementary error function so it cannot overflow even for
astronomically large SNR scale parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class QamConstants:
    """Coefficient table for square M-QAM bit error expressions.

    terms holds (j, n, upsilon_j, omega_n, phi_n_j) for every summand of
    the Gray-mapped BER expansion; a and b parameterize the dominant
    erfc term used by the high-SNR asymptote.
    """

    qam_order: int
    terms: tuple[tuple[int, int, int, float, float], ...]
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
    terms = []
    for j in range(1, bits_per_axis + 1):
        upsilon = round((1.0 - 2.0 ** (-j)) * sqrt_m - 1.0)
        for n in range(upsilon + 1):
            omega = (2 * n + 1) ** 2 * 3.0 * math.log2(m) / (2.0 * m - 2.0)
            shifted = n * 2 ** (j - 1) / sqrt_m
            phi = (-1.0) ** math.floor(shifted) * (
                2 ** (j - 1) - math.floor(shifted + 0.5)
            )
            terms.append((j, n, upsilon, omega, phi))
    a = (sqrt_m - 1.0) / (sqrt_m * math.log2(sqrt_m))
    b = 3.0 * math.log2(m) / (2.0 * (m - 1.0))
    return QamConstants(
        qam_order=m,
        terms=tuple(terms),
        a=a,
        b=b,
        denominator=sqrt_m * math.log2(sqrt_m),
    )


def instantaneous_ber(gamma, constants: QamConstants):
    """BER of the AWGN channel at instantaneous SNR gamma (scalar or array)."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("gamma must be non-negative")
    acc = np.zeros_like(g)
    term = np.empty_like(g)  # one scratch array for every summand
    for _, _, _, omega, phi in constants.terms:
        np.multiply(omega, g, out=term)
        np.sqrt(term, out=term)
        special.erfc(term, out=term)
        term *= phi
        acc += term
    acc /= constants.denominator
    np.clip(acc, 0.0, 1.0, out=acc)
    return float(acc) if np.isscalar(gamma) else acc


def hop_ber(alpha: float, constants: QamConstants) -> float:
    """Average BER of one hop with SNR scale parameter alpha.

    Each summand 1 - sqrt(pi*w*alpha)*erfcx(sqrt(w*alpha)) is the fading
    average of erfc(sqrt(w*gamma)); erfcx keeps it finite for any alpha.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    acc = 0.0
    for _, _, _, omega, phi in constants.terms:
        root = math.sqrt(omega * alpha)
        acc += phi * (1.0 - _SQRT_PI * root * special.erfcx(root))
    value = acc / constants.denominator
    if -1e-15 <= value < 0.0:  # cancellation hygiene near alpha -> inf
        return 0.0
    return value


def e2e_ber(per_hop_bers: Sequence[float]) -> float:
    """End-to-end BER: probability of an odd number of hop bit errors."""
    bers = list(per_hop_bers)
    if not bers:
        raise ValueError("need at least one hop")
    if any(not 0.0 <= p <= 0.5 for p in bers):
        raise ValueError("per-hop BERs must lie in [0, 0.5]")
    acc = 0.0
    for p in reversed(bers):
        acc = p + (1.0 - 2.0 * p) * acc
    return acc


def e2e_ber_iid(alpha: float, hop_count: int, constants: QamConstants) -> float:
    """Closed form for identical hops: (1 - (1 - 2*hop_ber)^K)/2."""
    if hop_count < 1:
        raise ValueError("hop_count must be >= 1")
    p = hop_ber(alpha, constants)
    return 0.5 * (1.0 - (1.0 - 2.0 * p) ** hop_count)


def e2e_ber_asymptotic(
    alphas, constants: QamConstants, hop_count: int | None = None
) -> float:
    """High-SNR end-to-end BER (a/2b) * sum_k 1/alpha_k.

    Pass a sequence of per-hop alphas, or a scalar alpha together with
    hop_count for the identical-hops form K*a/(2*b*alpha).
    """
    if np.isscalar(alphas):
        if hop_count is None:
            raise ValueError("scalar alpha requires hop_count")
        alphas = [float(alphas)] * hop_count
    alphas = list(alphas)
    if not alphas or any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    return (constants.a / (2.0 * constants.b)) * sum(1.0 / a for a in alphas)
