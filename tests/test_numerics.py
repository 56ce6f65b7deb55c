import math
from math import erfc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfcx

from scipy.optimize import fsolve

from cogrelay import (
    ConvergenceError,
    hop_ber,
    NumericError,
    placement,
    qam_constants,
    solve_equal_ratio,
)
from cogrelay.ber import erfcx as float64_erfcx
from oracles import quad_semiinfinite

# ber.instantaneous_ber takes erfc from the C library (math.erfc), and
# hop_ber evaluates erfcx with ber.erfcx, from the C library's erfc and
# exp.  The first tests pin the accuracy and overflow behaviour those
# kernels rely on; scipy's erfcx stays as a second reference.


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


def _erfcx_reference(x: float):
    with mp.workdps(50):
        x = mp.mpf(x)
        return mp.exp(x * x) * mp.erfc(x)


# 0, tiny and subnormal x, a grid over [0, 10), and both sides of x = 10,
# where hop_ber's summand switches from erfcx to the asymptotic series
_ERFCX_POINTS = np.concatenate([
    [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1e-20, 1e-8],
    np.linspace(0.0, 10.0, 2001)[:-1],
    np.random.default_rng(20).uniform(0.0, 10.0, 2000),
    np.nextafter(10.0, 0.0) - np.arange(5) * 1e-12,
    np.linspace(9.9, 10.1, 401),
])


def test_float64_erfcx_relative_accuracy():
    values = float64_erfcx(_ERFCX_POINTS)
    for x, value in zip(_ERFCX_POINTS.tolist(), values.tolist()):
        ref = _erfcx_reference(x)
        assert abs(value - ref) <= 4e-15 * ref, (x, value, ref)
    assert float64_erfcx(0.0) == 1.0


@pytest.mark.parametrize("m", [4, 16, 64])
def test_hop_ber_relative_accuracy_across_the_series_switch(m):
    # alphas putting each omega's x^2 = omega*alpha on both sides of 100
    c = qam_constants(m)
    alphas = np.concatenate([
        100.0 / omega * np.array([0.99, 1 - 1e-9, 1 - 1e-16, 1, 1 + 1e-9, 1.01])
        for omega in sorted({t[3] for t in c.terms})
    ])
    values = hop_ber(alphas, c)
    with mp.workdps(60):
        for alpha, value in zip(alphas.tolist(), values.tolist()):
            ref = mp.fsum(
                phi * (1 - mp.sqrt(mp.pi) * mp.sqrt(mp.mpf(omega) * alpha)
                       * mp.exp(mp.mpf(omega) * alpha)
                       * mp.erfc(mp.sqrt(mp.mpf(omega) * alpha)))
                for _, _, _, omega, phi in c.terms
            ) / mp.mpf(c.denominator)
            assert abs(value - ref) <= 1e-12 * ref, (alpha, value, ref)


def test_quad_semiinfinite_known_integrals():
    assert quad_semiinfinite(lambda g: math.exp(-g)) == pytest.approx(1.0, rel=1e-10)
    assert quad_semiinfinite(lambda g: 1.0 / (g + 1.0) ** 2) == pytest.approx(1.0, rel=1e-10)
    val = quad_semiinfinite(lambda g: math.log2(1.0 + g) / (g + 1.0) ** 2)
    assert val == pytest.approx(1.0 / math.log(2.0), rel=1e-10)


def test_quad_semiinfinite_rejects_nonconvergent_integrand():
    with pytest.raises(NumericError), np.errstate(all="ignore"):
        # undamped oscillation: the adaptive budget cannot resolve it
        quad_semiinfinite(lambda g: math.sin(g * g))


# The balanced placement solves one scalar equation in the common ratio
# with placement.newton_system, which takes residual(x) -> (f, f').


def _tanh_residual(x):
    return math.tanh(x) - 0.5, 1.0 - math.tanh(x) ** 2


def test_newton_scalar_and_coupled():
    # start 0.0 is projected to the smallest normal double
    rho, _ = placement.newton_system(lambda x: (x - 3.0, 1.0), 0.0)
    assert rho == pytest.approx(3.0, abs=1e-10)

    # the K coupled equal-ratio conditions, sum d = 1 and
    # d_k/d_I_k = d_1/d_I_1, solved directly agree with the scalar solve
    k, pu = 4, (0.35, 0.35)

    def conditions(d):
        d_i = placement.interference_distances(d, pu)
        ratios = [a / b for a, b in zip(d, d_i)]
        return [sum(d) - 1.0] + [r - ratios[0] for r in ratios[1:]]

    direct = fsolve(conditions, [1.0 / k] * k, xtol=1e-14)
    assert max(abs(c) for c in conditions(direct)) <= 1e-12
    assert solve_equal_ratio(k, pu).d_data == pytest.approx(direct, abs=1e-10)


def test_newton_honors_declared_tolerance():
    # the solve ends once a step is at most 1e-8 * rho; a fresh step at
    # the returned ratio is within that bound
    rho, iterations = placement.newton_system(_tanh_residual, 2.0)
    f, df = _tanh_residual(rho)
    assert abs(f / df) <= 1e-8 * rho
    assert abs(f) <= 1e-13
    assert iterations < 100


def test_newton_zero_tolerance_stops_at_rounding_floor():
    # no residual tolerance: only the settle rule ends the solve, which
    # runs the root to rounding level
    rho, iterations = placement.newton_system(_tanh_residual, 2.0)
    assert rho == pytest.approx(math.atanh(0.5), rel=1e-15)
    assert iterations < 100


def test_newton_rejects_zero_derivative():
    with pytest.raises(NumericError, match="derivative"):
        placement.newton_system(lambda x: (x - 1.0, 0.0), 2.0)


def test_newton_reports_nonconvergence():
    # a derivative far too large gives steps that never settle rho
    with pytest.raises(ConvergenceError):
        placement.newton_system(lambda x: (x - 1.0, 1e6), 2.0)


def test_newton_solves_two_hop_placement_system():
    # the two-hop placement residual in the first hop length, cross-checked
    # by bisection
    def g(t):
        return (0.35 - t) ** 2 + 0.1225 - 0.245 * ((1.0 - t) / t) ** 2

    def dg(t):
        return -2.0 * (0.35 - t) + 0.49 * (1.0 - t) / t ** 3

    lo, hi = 0.05, 0.95
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    t, _ = placement.newton_system(lambda v: (g(v), dg(v)), 0.5)
    assert t == pytest.approx(root, abs=1e-10)
