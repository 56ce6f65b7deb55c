"""End-to-end outage probability: exact, high-SNR asymptote, and gains.

The closed forms take one chain's hops along the last axis; any leading
axes are points (a sweep), and each point gets the value its own call
would give, bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .numerics import libm, row_fsum

Pair = tuple[float, float]


def outage_exact(alphas, gamma_th: float):
    """P(min hop SNR < gamma_th) = 1 - prod_k alpha_k/(gamma_th+alpha_k).

    Evaluated as -expm1(-sum_k log1p(gamma_th/alpha_k)), which keeps its
    relative accuracy where the product is close to 1 (high SNR) and
    cannot underflow for long chains.  alphas of shape (K,) give a
    float, (P, K) a (P,) array.
    """
    al = np.asarray(alphas, dtype=float)
    if al.ndim == 0 or al.shape[-1] == 0:
        raise ValueError("need at least one hop")
    if np.any(al <= 0):
        raise ValueError("alphas must be positive")
    if gamma_th < 0:
        raise ValueError("gamma_th must be non-negative")
    value = -libm(math.expm1, -row_fsum(libm(math.log1p, gamma_th / al)))
    return float(value) if value.ndim == 0 else value


def outage_asymptotic(lambda_pairs, ip_over_n0, gamma_th: float):
    """High-SNR approximation (gamma_th/(I_p/N_0)) * sum_k lambda_i/lambda_d.

    lambda_pairs has shape (K, 2) or (P, K, 2); ip_over_n0 broadcasts
    against the leading axes, so one chain's pairs and a (P,) array of
    I_p/N_0 give (P,) values.
    """
    pairs = _check_pairs(lambda_pairs)
    ip = np.asarray(ip_over_n0, dtype=float)
    if np.any(ip <= 0):
        raise ValueError("ip_over_n0 must be positive")
    if gamma_th < 0:
        raise ValueError("gamma_th must be non-negative")
    ratios = pairs[..., 1] / pairs[..., 0]
    value = (gamma_th / ip) * sum(np.moveaxis(ratios, -1, 0))
    return float(value) if np.ndim(value) == 0 else value


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


def _check_pairs(lambda_pairs) -> np.ndarray:
    pairs = np.asarray(lambda_pairs, dtype=float)
    if pairs.ndim < 2 or pairs.shape[-2] == 0:
        raise ValueError("need at least one hop")
    if pairs.shape[-1] != 2:
        raise ValueError("lambda pairs must be (lambda_d, lambda_i)")
    if np.any(pairs <= 0):
        raise ValueError("lambda pairs must be positive")
    return pairs
