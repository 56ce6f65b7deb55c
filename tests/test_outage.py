import math

import numpy as np
import pytest

from cogrelay import outage_asymptotic, outage_exact


def test_exact_examples():
    assert outage_exact([2.0], 2.0) == pytest.approx(0.5)
    assert outage_exact([2.0, 3.0], 1.0) == pytest.approx(0.5)
    assert outage_exact([0.3, 7.0, 2.0], 0.0) == 0.0
    with pytest.raises(ValueError):
        outage_exact([], 1.0)


def test_exact_deep_multihop_no_underflow():
    alphas = [1e-3] * 64
    op = outage_exact(alphas, 1.0)
    assert 0.0 <= op <= 1.0
    # survival is (1e-3/(1+1e-3))^64, far below float tininess if mishandled
    expected = 1.0 - math.exp(64 * (math.log(1e-3) - math.log(1.0 + 1e-3)))
    assert op == pytest.approx(expected, rel=1e-12)


def _alphas(pairs, ip):
    """alpha_k = (lambda_d/lambda_i)_k * I_p/N_0 of (lambda_d, lambda_i) pairs."""
    return [ld / li * ip for ld, li in pairs]


def test_asymptotic_examples():
    pairs = [(2.0, 1.0), (4.0, 1.0)]  # ratios lambda_i/lambda_d = 0.5, 0.25
    assert outage_asymptotic(_alphas(pairs, 100.0), 1.0) == pytest.approx(0.0075)
    assert outage_asymptotic(_alphas(pairs, 200.0), 1.0) == pytest.approx(0.00375)


def test_asymptotic_close_to_exact_at_extreme_snr():
    alphas = _alphas([(1.0, 1.0)] * 3, 1e6)
    ratio = outage_exact(alphas, 1.0) / outage_asymptotic(alphas, 1.0)
    assert 0.99 <= ratio <= 1.0


def _gains(pairs, gamma_th, ip1=1e2, ip2=1e5):
    """(G_d, G_c) read off the asymptote OP = (G_c * I_p/N_0)^(-G_d) at two SNRs."""
    op1, op2 = (outage_asymptotic(_alphas(pairs, ip), gamma_th) for ip in (ip1, ip2))
    gd = -math.log(op2 / op1) / math.log(ip2 / ip1)
    return gd, op1 ** (-1.0 / gd) / ip1


def test_diversity_and_coding_gain():
    pairs = [(2.0, 1.0), (4.0, 1.0)]
    gd, gc = _gains(pairs, 1.0)
    assert gd == pytest.approx(1.0, rel=1e-12)
    assert gc == pytest.approx(4.0 / 3.0)
    # diversity order is one no matter the hop count
    for k in (1, 2, 5, 9):
        gd, _ = _gains([(1.0, 3.0)] * k, 2.0)
        assert gd == pytest.approx(1.0, rel=1e-12)


def test_loglog_slope_is_minus_one():
    pairs = [(4.0, 1.5), (2.0, 1.0), (8.0, 3.0)]
    ips_db = np.arange(40.0, 61.0, 5.0)
    ops = []
    for db in ips_db:
        ip = 10 ** (db / 10)
        ops.append(outage_exact([ld / li * ip for ld, li in pairs], 1.0))
    slope = np.polyfit(ips_db / 10.0, np.log10(ops), 1)[0]
    assert -1.05 <= slope <= -0.95


def test_monotonicity():
    alphas = [1.0, 2.0, 3.0]
    ops = [outage_exact(alphas, g) for g in (0.0, 0.5, 1.0, 2.0, 8.0)]
    assert all(a <= b for a, b in zip(ops, ops[1:]))
    # improving any hop cannot hurt
    better = [1.0, 2.0, 4.0]
    assert outage_exact(better, 1.0) <= outage_exact(alphas, 1.0)


def test_exact_bounded_by_asymptotic():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = rng.integers(1, 8)
        pairs = [(10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 2)) for _ in range(k)]
        ip = 10 ** rng.uniform(-1, 4)
        gth = 10 ** rng.uniform(-2, 1)
        alphas = _alphas(pairs, ip)
        assert outage_exact(alphas, gth) <= outage_asymptotic(alphas, gth) + 1e-15


def test_iid_reduction():
    alpha, k, gth = 2.5, 6, 1.5
    assert outage_exact([alpha] * k, gth) == pytest.approx(
        1.0 - (alpha / (gth + alpha)) ** k, rel=1e-14
    )

