"""libm, libm_pow and row_fsum give the array closed forms the bits of
Python's math module."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


def libm(fn: Callable[[float], float], values) -> np.ndarray:
    """fn, a function of the math module, applied element by element.

    numpy's own log/exp kernels differ from the C library's in the last
    bit on CPUs with AVX-512, so an array evaluation through them would
    agree neither with the scalar form nor across machines.
    """
    x = np.asarray(values, dtype=float)
    return np.fromiter(map(fn, x.flat), float, x.size).reshape(x.shape)


def libm_pow(x: np.ndarray, n) -> np.ndarray:
    """x ** n element by element (n a number or numbers broadcast against
    x), as the C library's pow rounds it, with inf where it overflows.

    numpy's array power takes other routes, such as 1/x for n = -1 or
    SIMD kernels, that differ from pow in the last bit.
    """
    if isinstance(n, int) and n == 1:
        return x
    # Python floats, not numpy scalars, and no broadcast for a scalar n:
    # on the few-element arrays of one chain that is most of the cost
    bases = x.ravel().tolist()
    if np.ndim(n) == 0:
        exponents = [n] * x.size
    else:
        exponents = np.broadcast_to(n, x.shape).ravel().tolist()
    try:
        values = np.fromiter(map(math.pow, bases, exponents), float, x.size)
    except (OverflowError, ValueError):
        values = np.fromiter(
            (np.float64(v) ** e for v, e in zip(bases, exponents)), float, x.size
        )
    return values.reshape(x.shape)


def row_fsum(rows) -> np.ndarray:
    """math.fsum along the last axis: exactly rounded sums, nan for a row
    whose partial sums overflow or that adds inf to -inf."""
    x = np.asarray(rows, dtype=float)
    flat = x.reshape(-1, x.shape[-1]).tolist()
    try:
        sums = list(map(math.fsum, flat))
    except (OverflowError, ValueError):
        sums = [_fsum_or_nan(row) for row in flat]
    return np.array(sums, dtype=float).reshape(x.shape[:-1])


def _fsum_or_nan(row: list) -> float:
    try:
        return math.fsum(row)
    except (OverflowError, ValueError):
        return math.nan
