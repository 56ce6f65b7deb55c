"""End-to-end outage probability: exact, high-SNR asymptote, and gains."""

from __future__ import annotations

import math
from typing import Sequence

Pair = tuple[float, float]


def outage_exact(alphas: Sequence[float], gamma_th: float) -> float:
    """P(min hop SNR < gamma_th) = 1 - prod_k alpha_k/(gamma_th+alpha_k).

    Evaluated as -expm1(-sum_k log1p(gamma_th/alpha_k)), which keeps its
    relative accuracy where the product is close to 1 (high SNR) and
    cannot underflow for long chains.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("need at least one hop")
    if any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    if gamma_th < 0:
        raise ValueError("gamma_th must be non-negative")
    return -math.expm1(-math.fsum(math.log1p(gamma_th / a) for a in alphas))


def outage_asymptotic(
    lambda_pairs: Sequence[Pair], ip_over_n0: float, gamma_th: float
) -> float:
    """High-SNR approximation (gamma_th/(I_p/N_0)) * sum_k lambda_i/lambda_d."""
    _check_pairs(lambda_pairs)
    if ip_over_n0 <= 0:
        raise ValueError("ip_over_n0 must be positive")
    if gamma_th < 0:
        raise ValueError("gamma_th must be non-negative")
    return (gamma_th / ip_over_n0) * sum(li / ld for ld, li in lambda_pairs)


def diversity_coding_gain(
    lambda_pairs: Sequence[Pair], gamma_th: float
) -> tuple[float, float]:
    """(G_d, G_c) of the high-SNR law OP -> (G_c * I_p/N_0)^(-G_d).

    The diversity order is 1 for any number of hops; only the coding
    gain improves with more hops.
    """
    _check_pairs(lambda_pairs)
    if gamma_th <= 0:
        raise ValueError("gamma_th must be positive for a finite coding gain")
    ratio_sum = sum(li / ld for ld, li in lambda_pairs)
    return 1.0, 1.0 / (gamma_th * ratio_sum)


def _check_pairs(lambda_pairs) -> None:
    if not lambda_pairs:
        raise ValueError("need at least one hop")
    if any(ld <= 0 or li <= 0 for ld, li in lambda_pairs):
        raise ValueError("lambda pairs must be positive")
