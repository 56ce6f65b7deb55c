"""End-to-end outage probability: exact and high-SNR asymptote.

The closed forms take one chain's hops along the last axis; any leading
axes are points (a sweep), and each point gets the value its own call
would give, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import libm, row_fsum


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


def outage_asymptotic(alphas, gamma_th: float):
    """High-SNR approximation gamma_th * sum_k 1/alpha_k.

    alphas of shape (K,) give a float, (P, K) a (P,) array, as in
    outage_exact.  With alpha_k = (lambda_d/lambda_i)_k * I_p/N_0 this
    is the law OP -> (G_c * I_p/N_0)^(-G_d): the diversity order G_d is
    1 for any number of hops, and only the coding gain
    G_c = 1/(gamma_th * sum_k lambda_i/lambda_d) changes with the hops.
    """
    al = np.asarray(alphas, dtype=float)
    if al.ndim == 0 or al.shape[-1] == 0 or np.any(al <= 0):
        raise ValueError("alphas must be positive")
    if gamma_th < 0:
        raise ValueError("gamma_th must be non-negative")
    value = gamma_th * sum(np.moveaxis(1.0 / al, -1, 0))
    return float(value) if np.ndim(value) == 0 else value
