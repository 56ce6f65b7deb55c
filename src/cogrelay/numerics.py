"""Generic numeric kernels.

The semi-infinite quadrature and the dense solve wrap scipy/numpy with
the error contracts the rest of the library relies on.  newton_system
is a damped Newton iteration with an optional analytic Jacobian and
iterate projection.  libm and row_fsum give the array closed forms the
bits of Python's math module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

from .errors import ConvergenceError, IllConditionedError, NumericError

_SQRT_EPS = np.sqrt(np.finfo(float).eps)
# Newton steps this small relative to x mean x has settled; at the
# rounding floor of f they no longer lower the residual.
_STEP_RTOL = 1e-8


def libm(fn: Callable[[float], float], values) -> np.ndarray:
    """fn, a function of the math module, applied element by element.

    numpy's own log/exp kernels differ from the C library's in the last
    bit on CPUs with AVX-512, so an array evaluation through them would
    agree neither with the scalar form nor across machines.
    """
    x = np.asarray(values, dtype=float)
    return np.fromiter(map(fn, x.flat), float, x.size).reshape(x.shape)


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


def solve_linear(a, b) -> tuple[np.ndarray, float]:
    """Solve the dense square system a @ x = b.

    Returns (x, condition_estimate).  Raises IllConditionedError when the
    matrix is singular or its condition estimate exceeds 1e12.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side not conformable")
    cond = float(np.linalg.cond(a))
    if not np.isfinite(cond) or cond > 1e12:
        raise IllConditionedError(f"condition estimate {cond:.3e} exceeds 1e12")
    x = np.linalg.solve(a, b)
    resid = np.max(np.abs(a @ x - b))
    if resid > 1e-9 * max(np.max(np.abs(b)), 1e-300):
        raise IllConditionedError(f"solve residual {resid:.3e} too large")
    return x, cond


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-10        # residual sup-norm for convergence (0: until x settles)
    max_iter: int = 100
    damping: float = 1.0      # initial step fraction, halved on backtracking

    def __post_init__(self):
        if self.tol < 0:
            raise ValueError("tol must be non-negative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must be in (0, 1]")


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    residual_norm: float
    iterations: int


def finite_difference_jacobian(
    f: Callable[[np.ndarray], np.ndarray], x: np.ndarray
) -> np.ndarray:
    """Central-difference Jacobian with step sqrt(eps)*max(1, |x_j|)."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        h = _SQRT_EPS * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(f(xp), float) - np.asarray(f(xm), float)) / (2.0 * h)
    return jac


def newton_system(
    f: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    options: Optional[NewtonOptions] = None,
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> NewtonResult:
    """Damped Newton iteration for f(x) = 0.

    Converged when the residual sup-norm is at most options.tol, or when
    x has settled: a Newton step at most 1e-8 times the sup-norm of x
    that no longer lowers the residual (the rounding floor).  Otherwise
    the step is scaled by options.damping and halved (up to 60 times)
    whenever the residual sup-norm does not decrease.  `project`, when
    given, maps every trial iterate back into the feasible region before
    the residual is evaluated.

    Raises ConvergenceError if max_iter is exhausted before the residual
    reaches tol or x settles, and propagates IllConditionedError for a
    singular Jacobian.
    """
    opts = options or NewtonOptions()
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if project is not None:
        x = project(x)
    fx = np.atleast_1d(np.asarray(f(x), dtype=float))
    norm = np.max(np.abs(fx))
    settled = False
    for it in range(opts.max_iter):
        if norm <= opts.tol:
            return NewtonResult(x=x, residual_norm=float(norm), iterations=it)
        jac = jacobian(x) if jacobian is not None else finite_difference_jacobian(f, x)
        try:
            step, _ = solve_linear(jac, -fx)
        except IllConditionedError:
            raise
        except np.linalg.LinAlgError as exc:  # pragma: no cover - solve_linear guards
            raise NumericError(str(exc)) from exc
        settled = np.max(np.abs(step)) <= _STEP_RTOL * np.max(np.abs(x))
        lam = opts.damping
        for _ in range(60):
            cand = x + lam * step
            if project is not None:
                cand = project(cand)
            f_cand = np.atleast_1d(np.asarray(f(cand), dtype=float))
            cand_norm = np.max(np.abs(f_cand))
            if cand_norm < norm or not np.isfinite(norm):
                break
            if settled:
                # rounding floor: no step lowers the residual any more
                return NewtonResult(x=x, residual_norm=float(norm), iterations=it + 1)
            lam *= 0.5
        x, fx, norm = cand, f_cand, cand_norm
    if norm <= opts.tol or settled:
        return NewtonResult(x=x, residual_norm=float(norm), iterations=opts.max_iter)
    raise ConvergenceError(
        f"newton_system: residual {norm:.3e} > tol {opts.tol:g} "
        f"after {opts.max_iter} iterations"
    )
