import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogrelay import (
    ConfigError,
    Scenario,
    derive_hop_statistics,
    hop_alphas,
    scenario_from_config,
)
from cogrelay.scenario import MAX_HOPS, MAX_QAM_ORDER


def test_hop_alphas_are_ip_times_the_path_loss_ratio():
    # hops of length 1, 0.5 and 2 with their transmitter 1 from the receiver
    assert hop_alphas(1.0, 4.0, 0.0, 1.0, 0.0, 1.0).tolist() == 1.0
    assert hop_alphas(3.0, 4.0, 0.0, 1.0, 0.0, 0.5).tolist() == 48.0
    assert hop_alphas(1.0, 2.0, 0.0, 1.0, 0.0, 2.0).tolist() == 0.25


def test_hop_alphas_reject_a_zero_length_or_a_receiver_on_a_transmitter():
    with pytest.raises(ConfigError, match="alpha is inf"):
        hop_alphas(1.0, 4.0, 0.5, 0.5, 0.0, 0.0)
    with pytest.raises(ConfigError, match="alpha is 0.0"):
        hop_alphas(1.0, 4.0, 0.5, 0.0, 0.5, 0.5)


def test_hop_geometry_single_hop():
    # one hop of length 1 from the source, 0.35*sqrt(2) from the receiver
    [alpha] = derive_hop_statistics(Scenario(hop_count=1, ip_over_n0=2.0))
    assert alpha == 2.0 * math.pow(math.hypot(0.35, 0.35) / 1.0, 4.0)


def test_derive_statistics_single_hop():
    [alpha] = derive_hop_statistics(Scenario(hop_count=1, ip_over_n0=1.0))
    assert alpha == math.pow(math.hypot(0.35, 0.35), 4.0)
    assert alpha == pytest.approx(0.060025, rel=1e-10)


def test_hop_geometry_two_hops_equidistant():
    alphas = derive_hop_statistics(Scenario(hop_count=2)).tolist()
    assert alphas == [math.pow(math.hypot(0.35, 0.35) / 0.5, 4.0),
                      math.pow(math.hypot(0.35 - 0.5, 0.35) / 0.5, 4.0)]


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 33, 64])
def test_hop_distances_sum_to_one(k):
    # equidistant hops take their node positions' differences as lengths
    xs = [i / k for i in range(k + 1)]
    assert abs(math.fsum(y - x for x, y in zip(xs, xs[1:])) - 1.0) <= 1e-12
    alphas = derive_hop_statistics(Scenario(hop_count=k, ip_over_n0=3.0)).tolist()
    assert alphas == [3.0 * math.pow(math.hypot(0.35 - x, 0.35) / (y - x), 4.0)
                      for x, y in zip(xs, xs[1:])]
    # the interference distance can never be closer than the PU's offset
    assert all(a >= (0.35 * k) ** 4 * 3.0 * (1 - 1e-12) for a in alphas)


def test_overrides_win_over_geometry():
    s = Scenario(
        hop_count=2,
        ip_over_n0=10.0,
        lambda_overrides=((3.0, 3.0), (5.0, 5.0)),
    )
    assert derive_hop_statistics(s).tolist() == [10.0, 10.0]
    assert derive_hop_statistics(s, ip_over_n0=np.array([[1.0], [2.0]])).tolist() == [
        [1.0, 1.0], [2.0, 2.0]]
    # overrides fix alpha/(I_p/N_0): no layout or geometry column applies
    for kwargs in ({"hop_lengths": [0.5, 0.5]}, {"eta": np.array([[2.0]])},
                   {"pu_x": 0.1}, {"pu_y": 0.1}):
        with pytest.raises(ConfigError, match="lambda_overrides"):
            derive_hop_statistics(s, **kwargs)


def test_alpha_linear_in_ip_and_scale_invariant():
    base = derive_hop_statistics(Scenario(hop_count=3, ip_over_n0=2.0))
    doubled = derive_hop_statistics(Scenario(hop_count=3, ip_over_n0=4.0))
    assert doubled.tolist() == (2.0 * base).tolist()
    # joint scaling of both average powers leaves alpha unchanged
    s1 = Scenario(hop_count=1, ip_over_n0=7.0, lambda_overrides=((2.0, 5.0),))
    s2 = Scenario(hop_count=1, ip_over_n0=7.0, lambda_overrides=((6.0, 15.0),))
    assert derive_hop_statistics(s1) == pytest.approx(derive_hop_statistics(s2), rel=1e-14)


def test_alpha_must_be_a_normal_double():
    smallest = 2.0 ** -1022
    ok = Scenario(hop_count=1, ip_over_n0=smallest, lambda_overrides=((1.0, 1.0),))
    assert derive_hop_statistics(ok).tolist() == [smallest]
    for ip, pair in ((smallest / 2, (1.0, 1.0)), (1e300, (1e300, 1e-10)),
                     (1.0, (1e300, 1e-300))):
        scenario = Scenario(hop_count=1, ip_over_n0=ip, lambda_overrides=(pair,))
        with pytest.raises(ConfigError, match="not a finite double >= 2\\^-1022"):
            derive_hop_statistics(scenario)


def test_hop_lengths_replace_relay_positions():
    laid_out = derive_hop_statistics(Scenario(hop_count=3), [0.2, 0.3, 0.5])
    placed = derive_hop_statistics(Scenario(hop_count=3, relay_x_positions=(0.2, 0.5)))
    assert laid_out == pytest.approx(placed, rel=1e-15)
    # transmitters at the running sums of the hops before, per row
    rows = derive_hop_statistics(Scenario(hop_count=2), [[0.25, 0.75], [0.5, 0.5]])
    assert rows.tolist() == [
        [math.pow(math.hypot(0.35, 0.35) / d0, 4.0),
         math.pow(math.hypot(0.35 - d0, 0.35) / (1.0 - d0), 4.0)]
        for d0 in (0.25, 0.5)]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    points=st.integers(1, 50),
    hops=st.integers(1, 64),
    varying=st.sets(st.sampled_from(["ip", "eta", "px", "py"])),
    data=st.data(),
)
def test_hop_alphas_equal_the_scalar_formula_bit_for_bit(points, hops, varying, data):
    def draw(name, elements):
        if name in varying:  # a (P, 1) column, as a sweep passes it
            return np.array(data.draw(st.lists(elements, min_size=points, max_size=points)))[:, None]
        return data.draw(elements)

    ip = draw("ip", st.floats(1e-30, 1e30))
    eta = draw("eta", st.floats(2.0, 8.0))
    px = draw("px", st.floats(-3.0, 3.0))
    py = draw("py", st.floats(1e-3, 3.0))
    lengths = st.lists(st.floats(1e-6, 1.0), min_size=hops, max_size=hops)
    d = np.array(data.draw(lengths))
    x = np.concatenate([[0.0], np.cumsum(d[:-1])])
    alphas = hop_alphas(ip, eta, px, py, x, d)
    cols = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (ip, eta, px, py, x, d)))
    expected = [
        ip_ * math.pow(math.hypot(px_ - x_, py_) / d_, eta_)
        for ip_, eta_, px_, py_, x_, d_ in zip(*(c.ravel().tolist() for c in cols))
    ]
    assert alphas.shape == cols[0].shape
    assert alphas.ravel().tolist() == expected


def test_override_length_mismatch_rejected():
    with pytest.raises(ConfigError):
        Scenario(hop_count=3, lambda_overrides=((1.0, 1.0),))


def test_relay_positions_validated():
    Scenario(hop_count=3, relay_x_positions=(0.2, 0.7))
    with pytest.raises(ConfigError):
        Scenario(hop_count=3, relay_x_positions=(0.7, 0.2))
    with pytest.raises(ConfigError):
        Scenario(hop_count=3, relay_x_positions=(0.0, 0.5))
    with pytest.raises(ConfigError):
        Scenario(hop_count=3, relay_x_positions=(0.5,))


def test_qam_order_validated():
    Scenario(hop_count=1, qam_order=256)
    for bad in (2, 8, 32, 5, 0):
        with pytest.raises(ConfigError):
            Scenario(hop_count=1, qam_order=bad)


def test_config_parsing_db_fields():
    s = scenario_from_config(
        {"hop_count": 2, "ip_over_n0_db": 20.0, "gamma_th_db": 3.0}
    )
    assert s.ip_over_n0 == pytest.approx(100.0)
    assert s.gamma_th == pytest.approx(10 ** 0.3)
    with pytest.raises(ConfigError):
        scenario_from_config({"hop_count": 2, "nonsense": 1})


@pytest.mark.parametrize("key,value", [
    ("hop_count", 3.7), ("hop_count", True), ("hop_count", "3"), ("hop_count", None),
    ("qam_order", 16.9), ("qam_order", False), ("qam_order", math.inf),
])
def test_counts_must_be_integers(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        scenario_from_config({key: value})


def test_integral_float_counts_are_accepted():
    s = scenario_from_config({"hop_count": 3.0, "qam_order": 16.0})
    assert (s.hop_count, s.qam_order) == (3, 16)
    assert type(s.hop_count) is int and type(s.qam_order) is int


def test_counts_above_their_caps_are_refused():
    Scenario(hop_count=MAX_HOPS, qam_order=MAX_QAM_ORDER)
    with pytest.raises(ConfigError, match="hop_count must be an integer from 1 to 4096"):
        Scenario(hop_count=MAX_HOPS + 1)
    with pytest.raises(ConfigError, match="qam_order must be an integer power of 4"):
        Scenario(hop_count=1, qam_order=4 * MAX_QAM_ORDER)


@pytest.mark.parametrize("key,value", [
    ("path_loss_exponent", "4"), ("gamma_th", True), ("ip_over_n0", False),
    ("gamma_th_db", "3"), ("pu_coord", [0.5, "0.5"]), ("relay_x_positions", [0.3, True]),
])
def test_reals_must_be_numbers(key, value):
    config = {"hop_count": 3, key: value}
    with pytest.raises(ConfigError, match=f"{key} must be a number"):
        scenario_from_config(config)


def test_hop_counts_give_equidistant_chains_padded_with_inf():
    base = Scenario(hop_count=3, pu_coord=(0.6, 0.25), ip_over_n0=31.6)
    counts = [5, 1, 64, 5, 2]
    padded = derive_hop_statistics(base, hop_counts=counts)
    assert padded.shape == (5, 64)
    for row, k in zip(padded.tolist(), counts):
        own = derive_hop_statistics(Scenario(hop_count=k, pu_coord=(0.6, 0.25), ip_over_n0=31.6))
        assert row == own.tolist() + [math.inf] * (64 - k)
    overrides = Scenario(hop_count=2, lambda_overrides=((1.0, 1.0), (2.0, 1.0)))
    with pytest.raises(ConfigError, match="lambda_overrides"):
        derive_hop_statistics(overrides, hop_counts=[2])


def test_hop_counts_mask_padded_hop_lengths():
    # hop_counts and hop_lengths combine: each chain takes its own lengths,
    # and whatever lies past its hops (zeros here) is never read
    base = Scenario(hop_count=3, pu_coord=(0.6, 0.25), ip_over_n0=31.6)
    chains = [[0.2, 0.3, 0.5], [1.0], [0.05] * 20, [0.7, 0.3]]
    padded = np.zeros((len(chains), 20))
    for row, lengths in zip(padded, chains):
        row[:len(lengths)] = lengths
    alphas = derive_hop_statistics(base, padded, hop_counts=[len(c) for c in chains])
    assert alphas.shape == (4, 20)
    for row, lengths in zip(alphas.tolist(), chains):
        own = derive_hop_statistics(base, lengths).tolist()
        assert row == own + [math.inf] * (20 - len(lengths))
