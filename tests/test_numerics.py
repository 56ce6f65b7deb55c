import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfc, erfcx

from cogrelay import (
    ConvergenceError,
    IllConditionedError,
    NewtonOptions,
    newton_system,
    quad_semiinfinite,
    solve_linear,
)

# The BER kernels call scipy.special.erfc/erfcx directly; the first tests
# pin the accuracy and overflow behaviour those kernels rely on.


def test_erfc_reference_points():
    assert erfc(0.0) == 1.0
    # frozen from a 40-digit series evaluation
    assert erfc(1.0) == pytest.approx(0.15729920705028513, rel=1e-13)
    assert erfc(30.0) < 1e-300


@pytest.mark.parametrize("x", np.linspace(-26, 26, 53))
def test_erfc_matches_high_precision(x):
    with mp.workdps(40):
        ref = float(mp.erfc(mp.mpf(x)))
    if ref == 0.0:
        assert erfc(x) == 0.0
    else:
        assert erfc(x) == pytest.approx(ref, rel=1e-12)


def test_erfc_reflection_identity():
    for x in np.linspace(0, 6, 61):
        assert erfc(x) + erfc(-x) == pytest.approx(2.0, abs=1e-13)


def test_erfcx_values():
    assert erfcx(0.0) == 1.0
    assert erfcx(1.0) == pytest.approx(0.4275835761558070, rel=1e-12)
    # large-argument value, frozen from exp(x^2)*erfc(x) at 40 digits;
    # the two-term asymptote 1/(x sqrt(pi)) (1 - 1/(2x^2)) agrees to ~1e-7
    assert erfcx(50.0) == pytest.approx(0.011281536265323772, rel=1e-12)
    asym = (1.0 - 1.0 / 5000.0) / (50.0 * math.sqrt(math.pi))
    assert erfcx(50.0) == pytest.approx(asym, rel=1e-6)


def test_erfcx_never_overflows_and_matches_erfc():
    for x in (1e2, 1e4, 1e8, 1e150):
        v = erfcx(x)
        assert 0 < v < 1
    for x in np.linspace(0, 26, 27):
        if math.exp(-x * x) > 0:
            assert erfcx(x) * math.exp(-(x * x)) == pytest.approx(erfc(x), rel=1e-12)


def test_quad_semiinfinite_known_integrals():
    assert quad_semiinfinite(lambda g: math.exp(-g)) == pytest.approx(1.0, rel=1e-10)
    assert quad_semiinfinite(lambda g: 1.0 / (g + 1.0) ** 2) == pytest.approx(1.0, rel=1e-10)
    val = quad_semiinfinite(lambda g: math.log2(1.0 + g) / (g + 1.0) ** 2)
    assert val == pytest.approx(1.0 / math.log(2.0), rel=1e-10)


def test_quad_semiinfinite_rejects_nonconvergent_integrand():
    from cogrelay import NumericError

    with pytest.raises(NumericError), np.errstate(all="ignore"):
        # undamped oscillation: the adaptive budget cannot resolve it
        quad_semiinfinite(lambda g: math.sin(g * g))


def test_solve_linear_trivial_and_residual():
    x, cond = solve_linear(np.eye(3), [1.0, 2.0, 3.0])
    assert x == pytest.approx([1.0, 2.0, 3.0])
    assert cond == pytest.approx(1.0)
    x, _ = solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 4.0])
    assert x == pytest.approx([1.0, 1.0])
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
    b = rng.normal(size=5)
    x, _ = solve_linear(a, b)
    assert np.max(np.abs(a @ x - b)) <= 1e-9 * np.max(np.abs(b))


def test_solve_linear_rejects_singular():
    with pytest.raises(IllConditionedError):
        solve_linear([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])


def test_newton_scalar_and_coupled():
    res = newton_system(lambda x: x - 3.0, [0.0])
    assert res.x[0] == pytest.approx(3.0, abs=1e-10)
    assert res.residual_norm <= 1e-10

    res = newton_system(
        lambda v: np.array([v[0] ** 2 - 4.0, v[1] - v[0]]), [1.0, 1.0]
    )
    assert res.x == pytest.approx([2.0, 2.0], abs=1e-9)


def test_newton_honors_declared_tolerance():
    opts = NewtonOptions(tol=1e-13, max_iter=60)
    res = newton_system(lambda x: np.array([math.tanh(x[0]) - 0.5]), [2.0], opts)
    assert res.residual_norm <= opts.tol


def test_newton_zero_tolerance_stops_at_rounding_floor():
    # tol=0 leaves only the step test, which runs the root to rounding level
    res = newton_system(
        lambda x: np.array([math.tanh(x[0]) - 0.5]), [2.0], NewtonOptions(tol=0.0)
    )
    assert res.x[0] == pytest.approx(math.atanh(0.5), rel=1e-15)
    with pytest.raises(ValueError):
        NewtonOptions(tol=-1e-10)


def test_newton_reports_nonconvergence():
    opts = NewtonOptions(tol=1e-12, max_iter=2)
    with pytest.raises(ConvergenceError), np.errstate(over="ignore"):
        # the flat tail makes the first steps overshoot wildly; two
        # iterations cannot reach the tolerance
        newton_system(lambda x: np.array([np.exp(x[0]) - 50.0]), [-10.0], opts)


def test_newton_solves_two_hop_placement_system():
    # same residual solved by the placement module, cross-checked by bisection
    def g(t):
        return (0.35 - t) ** 2 + 0.1225 - 0.245 * ((1.0 - t) / t) ** 2

    lo, hi = 0.05, 0.95
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    res = newton_system(lambda v: np.array([g(v[0])]), [0.5])
    assert res.x[0] == pytest.approx(root, abs=1e-10)
