from itertools import permutations

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from cogrelay import (
    e2e_ber,
    e2e_ber_asymptotic,
    hop_ber,
    instantaneous_ber,
    qam_constants,
)
from oracles import e2e_ber_iid, snr_pdf


def test_constants_qpsk():
    c = qam_constants(4)
    assert len(c.terms) == 1
    j, n, upsilon, omega, phi = c.terms[0]
    assert (j, n, upsilon) == (1, 0, 0)
    assert omega == pytest.approx(1.0)
    assert phi == 1.0
    assert c.a == pytest.approx(0.5)
    assert c.b == pytest.approx(1.0)
    assert c.denominator == pytest.approx(2.0)


def test_constants_16qam():
    c = qam_constants(16)
    by_j = {}
    for j, n, upsilon, omega, phi in c.terms:
        by_j.setdefault(j, []).append((n, upsilon, omega, phi))
    assert sorted(by_j) == [1, 2]
    assert [t[1] for t in by_j[1]] == [1, 1]      # upsilon_1 = 1
    assert [t[1] for t in by_j[2]] == [2, 2, 2]   # upsilon_2 = 2
    for n, _, omega, _ in by_j[1] + by_j[2]:
        assert omega == pytest.approx(0.4 * (2 * n + 1) ** 2)
    assert [t[3] for t in by_j[1]] == [1.0, 1.0]
    assert [t[3] for t in by_j[2]] == [2.0, 1.0, -1.0]
    assert [c.omegas[n] for _, n, _, _, _ in c.terms] == [t[3] for t in c.terms]
    assert c.weights == (3.0, 2.0, -1.0)


def test_constants_reject_non_power_of_four():
    for bad in (2, 8, 32, 100):
        with pytest.raises(ValueError):
            qam_constants(bad)


def test_instantaneous_values():
    c4 = qam_constants(4)
    assert instantaneous_ber(0.0, c4) == pytest.approx(0.5)
    assert instantaneous_ber(1.0, c4) == pytest.approx(
        0.5 * 0.15729920705028513, rel=1e-12
    )
    assert instantaneous_ber(1e6, c4) < 1e-300
    for m in (4, 16, 64):
        assert instantaneous_ber(0.0, qam_constants(m)) == pytest.approx(0.5)


def test_hop_ber_values():
    c4 = qam_constants(4)
    # frozen from the quadrature oracle below
    assert hop_ber(1.0, c4) == pytest.approx(0.12106392192934395, rel=1e-12)
    assert hop_ber(1e-9, c4) == pytest.approx(0.5, abs=1e-4)
    assert hop_ber(1e6, c4) == pytest.approx(2.5e-7, rel=1e-4)


@pytest.mark.parametrize("m", [4, 16, 64])
@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0, 1e3, 1e6])
def test_hop_ber_matches_quadrature(m, alpha):
    c = qam_constants(m)
    oracle, err = quad(
        lambda g: instantaneous_ber(g, c) * snr_pdf(g, alpha),
        0.0, np.inf, epsabs=1e-16, epsrel=1e-12, limit=500,
    )
    # the oracle itself limits the comparison at the very smallest values
    tol = max(1e-8, 2.0 * err / oracle)
    assert hop_ber(alpha, c) == pytest.approx(oracle, rel=tol)


def test_hop_ber_strictly_decreasing_and_bounded():
    c = qam_constants(16)
    values = [hop_ber(a, c) for a in np.logspace(-3, 8, 45)]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert all(0.0 < v <= 0.5 for v in values)


def test_hop_ber_extreme_alpha_no_overflow():
    c = qam_constants(4)
    v = hop_ber(1e300, c)
    assert 0.0 <= v < 1e-290


def test_e2e_recursion():
    assert e2e_ber([0.3]) == pytest.approx(0.3)
    assert e2e_ber([0.1, 0.2]) == pytest.approx(0.26)
    assert e2e_ber([0.0, 0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        e2e_ber([0.6])
    with pytest.raises(ValueError):
        e2e_ber([])


def test_e2e_permutation_invariant():
    base = [0.01, 0.1, 0.3, 0.45]
    ref = e2e_ber(base)
    for perm in permutations(base):
        assert e2e_ber(list(perm)) == pytest.approx(ref, rel=1e-12)


def test_e2e_bounds():
    rng = np.random.default_rng(9)
    for _ in range(300):
        bers = rng.uniform(0.0, 0.5, rng.integers(1, 7)).tolist()
        v = e2e_ber(bers)
        assert max(bers) - 1e-15 <= v <= sum(bers) + 1e-15
        assert 0.0 <= v <= 0.5 + 1e-15


def test_iid_matches_general_recursion():
    c = qam_constants(16)
    for k in (1, 2, 5):
        alpha = 3.7
        via_list = e2e_ber([hop_ber(alpha, c)] * k)
        assert e2e_ber_iid(alpha, k, c) == pytest.approx(via_list, rel=1e-12)
    # K=2 algebraic identity: 2p(1-p)
    p = hop_ber(3.7, c)
    assert e2e_ber_iid(3.7, 2, c) == pytest.approx(2 * p * (1 - p), rel=1e-12)


def test_asymptote_examples():
    c4 = qam_constants(4)
    assert e2e_ber_asymptotic([100.0] * 2, c4) == pytest.approx(0.005)
    assert e2e_ber_asymptotic([100.0, 200.0], c4) == pytest.approx(0.00375)


def test_asymptote_approaches_exact():
    c = qam_constants(4)
    alpha, k = 1e5, 3
    exact = e2e_ber_iid(alpha, k, c)
    approx = e2e_ber_asymptotic([alpha] * k, c)
    assert 0.95 <= exact / approx <= 1.05


def _hop_ber_reference(alpha, c):
    """hop_ber at 50 digits for the same (float) omegas and phis; the
    extra working digits absorb the cancellation of 1 - sqrt(pi) x erfcx(x)."""
    total = mp.mpf(0)
    for _, _, _, omega, phi in c.terms:
        x2 = mp.mpf(omega) * mp.mpf(alpha)
        with mp.workdps(60 + int(max(0, mp.log10(x2)))):
            x = mp.sqrt(x2)
            total += phi * (1 - mp.sqrt(mp.pi) * x * mp.exp(x2) * mp.erfc(x))
    return total / mp.mpf(c.denominator)


@pytest.mark.parametrize("m", [4, 16, 64, 256])
def test_hop_ber_relative_accuracy_across_range(m):
    # the asymptotic series takes over from x^2 = w*alpha = 100, where
    # 1 - sqrt(pi) x erfcx(x) has cancelled two digits; without it the
    # relative error passes 1e-9 near alpha 5e7 and reaches 1 near 1e16
    c = qam_constants(m)
    with mp.workdps(50):
        for alpha in np.logspace(-30, 30, 121).tolist():
            value, ref = hop_ber(alpha, c), _hop_ber_reference(alpha, c)
            assert abs(value - ref) <= 1e-12 * ref, (alpha, value, ref)


ORDERS = st.sampled_from([4, 16, 64, 256, 1024])
ALPHAS = st.one_of(st.floats(-30, 30).map(lambda e: 10.0 ** e), st.floats(1e-30, 1e30))


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(m=ORDERS, alpha=ALPHAS)
def test_hop_ber_within_1e12_of_50_digits(m, alpha):
    c = qam_constants(m)
    with mp.workdps(50):
        ref = _hop_ber_reference(alpha, c)
    value = hop_ber(alpha, c)
    assert abs(value - ref) <= 1e-12 * ref, (alpha, value, ref)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(m=ORDERS, alphas=st.lists(ALPHAS, min_size=1, max_size=64))
# hop_ber's sum rounded to 1/2 + 2^-53 here, which e2e_ber refused
@example(m=1024, alphas=[2.80976865e-30])
@example(m=1024, alphas=[10.0 ** (e / 2) for e in range(-60, 4)])
def test_e2e_ber_within_1e12_of_50_digits(m, alphas):
    # hops within 1e-12 keep the chain within 1e-12, up to its own
    # rounding: the chain's derivative in hop k, prod_{j != k} (1 - 2 p_j),
    # is at most 1, and sum_k p_k prod_{j != k} (1 - 2 p_j) is at most
    # the chain's value
    c = qam_constants(m)
    with mp.workdps(50):
        ref = mp.mpf(0)
        for p in reversed([_hop_ber_reference(a, c) for a in alphas]):
            ref = p + (1 - 2 * p) * ref
    value = e2e_ber(hop_ber(np.array(alphas), c))
    assert abs(value - ref) <= 1e-12 * ref, (alphas, value, ref)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(m=ORDERS,
       rows=st.integers(1, 8).flatmap(
           lambda k: st.lists(st.lists(ALPHAS, min_size=k, max_size=k), min_size=1, max_size=4)),
       s=st.floats(1.0, 1e6, exclude_min=True))
# where 1 - sqrt(pi) x erfcx(x) cancels, the alpha one ulp up gives a BER
# 1.5e-13 (1,024 ulps) higher
@example(m=4, rows=[[82.37777]], s=1.0 + 2.0 ** -52)
# near 1/2, the 129-term table sum is 19 ulps higher at the larger alpha
@example(m=1024, rows=[[1.2166901720359025e-28]], s=1.02)
def test_ber_does_not_rise_with_ip_over_n0(m, rows, s):
    # alpha is proportional to I_p/N_0.  The asymptote takes only
    # correctly rounded steps that are monotone in alpha, so it cannot
    # rise at all; the exact BER, within 1e-12 of its value at either
    # point, can rise by at most 2e-12 of it
    c = qam_constants(m)
    alphas = np.array(rows)
    assert np.all(e2e_ber_asymptotic(s * alphas, c) <= e2e_ber_asymptotic(alphas, c))
    exact = e2e_ber(hop_ber(alphas, c))
    assert np.all(e2e_ber(hop_ber(s * alphas, c)) <= exact * (1.0 + 2e-12))
