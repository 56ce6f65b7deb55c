"""Reference forms that only the tests use.

The per-hop SNR law, the weakest-hop density, the identical-hop closed
forms and an adaptive semi-infinite quadrature: independent routes to
the quantities the library computes, kept out of its public API.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from cogrelay import NumericError, QamConstants, ergodic_capacity_ind, hop_ber


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
