import itertools
import math
import os
import sys
import threading

import mpmath as mp
import numpy as np
import pytest

from cogrelay import (
    NumericError,
    Scenario,
    e2e_ber,
    ergodic_capacity_ind,
    hop_ber,
    mc_ber,
    mc_capacity,
    mc_outage,
    monte_carlo,
    montecarlo,
    outage_exact,
    qam_constants,
)
from cogrelay import ber
from oracles import raw_monte_carlo


def _override_scenario(alphas, gamma_th=1.0, qam_order=4):
    return Scenario(
        hop_count=len(alphas),
        ip_over_n0=1.0,
        gamma_th=gamma_th,
        qam_order=qam_order,
        lambda_overrides=tuple((a, 1.0) for a in alphas),
    )


def test_outage_zero_threshold():
    est = mc_outage(_override_scenario([1.0, 2.0], gamma_th=0.0), 10_000, 1)
    assert est.value == 0.0


def test_outage_median_threshold():
    est = mc_outage(_override_scenario([2.0], gamma_th=2.0), 200_000, 42)
    assert abs(est.value - 0.5) <= 3 * est.std_error
    assert est.trials == 200_000 and est.seed == 42


def test_outage_matches_closed_form_paper_scenario():
    scn = Scenario(hop_count=3, ip_over_n0=10 ** 1.5, gamma_th=1.0)
    est = mc_outage(scn, 400_000, 7)
    from cogrelay import alphas

    exact = outage_exact(alphas(scn), scn.gamma_th)
    assert abs(est.value - exact) <= 3 * est.std_error


def test_ber_limits_and_closed_form():
    huge = _override_scenario([1e12])
    assert mc_ber(huge, 20_000, 3).value < 1e-6

    est = mc_ber(_override_scenario([1.0]), 400_000, 11)
    oracle = hop_ber(1.0, qam_constants(4))
    assert abs(est.value - oracle) <= 3 * est.std_error

    scn = _override_scenario([2.0, 5.0])
    est = mc_ber(scn, 400_000, 12)
    c = qam_constants(4)
    closed = e2e_ber([hop_ber(2.0, c), hop_ber(5.0, c)])
    assert abs(est.value - closed) <= 3 * est.std_error


def test_capacity_matches_closed_form():
    est = mc_capacity(_override_scenario([1.0]), 400_000, 21)
    assert abs(est.value - 1.442695) <= 3 * est.std_error
    est = mc_capacity(_override_scenario([1.0, 2.0]), 400_000, 22)
    closed = ergodic_capacity_ind([1.0, 2.0])
    assert abs(est.value - closed) <= 3 * est.std_error


def test_determinism_and_chunk_invariance():
    scn = Scenario(hop_count=2, ip_over_n0=10.0, qam_order=16)
    for trials in (1000, 300_001):  # 300_001 ends in a short block
        for fn in (mc_outage, mc_ber, mc_capacity):
            base = fn(scn, trials, 99, chunks=1)
            assert fn(scn, trials, 99, chunks=1) == base
            for chunks in (2, 3, 16):
                other = fn(scn, trials, 99, chunks=chunks)
                assert other.value == base.value, (fn.__name__, trials, chunks)
                assert other.std_error == base.std_error, (fn.__name__, trials, chunks)


ONE_METRIC = {"op": mc_outage, "ber": mc_ber, "capacity": mc_capacity}
SUBSETS = [s for r in (1, 2, 3) for s in itertools.permutations(montecarlo.METRICS, r)]


@pytest.mark.parametrize("trials", [1000, 3 * montecarlo.BLOCK_TRIALS + 5])
@pytest.mark.parametrize("chunks", [1, 2, 3, 16])
def test_joint_pass_equals_the_one_metric_calls(monkeypatch, trials, chunks):
    # at most 2 threads, whatever the chunk count
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    scn = Scenario(hop_count=3, ip_over_n0=10.0, qam_order=16)
    alone = {m: fn(scn, trials, 5, chunks) for m, fn in ONE_METRIC.items()}
    for metrics in SUBSETS:
        joint = monte_carlo(scn, trials, 5, chunks, metrics)
        assert list(joint) == list(metrics)
        for m in metrics:
            assert joint[m].value == alone[m].value, (metrics, m)
            assert joint[m].std_error == alone[m].std_error, (metrics, m)
            assert joint[m] == alone[m]


def test_joint_pass_defaults_to_every_metric():
    scn = _override_scenario([1.0, 2.0])
    assert list(monte_carlo(scn, 100, 1)) == ["op", "ber", "capacity"]


@pytest.mark.parametrize("metrics", [(), ("op", "op"), ("outage",), "op"])
def test_joint_pass_rejects_bad_metric_lists(metrics):
    with pytest.raises(ValueError, match="metrics"):
        monte_carlo(_override_scenario([1.0]), 100, 1, metrics=metrics)


def test_no_metric_calls_instantaneous_ber(monkeypatch):
    def forbidden(*args):
        raise AssertionError("instantaneous_ber called")

    monkeypatch.setattr(montecarlo, "instantaneous_ber", forbidden)
    monkeypatch.setattr(ber, "instantaneous_ber", forbidden)
    scn = _override_scenario([1.0, 2.0], qam_order=16)
    assert list(monte_carlo(scn, 1000, 1)) == list(montecarlo.METRICS)


def _record_threads(monkeypatch):
    """Thread idents of every block's substream call, in call order."""
    idents = []
    substream = montecarlo.substream

    def recording(seed, index):
        idents.append(threading.get_ident())
        return substream(seed, index)

    monkeypatch.setattr(montecarlo, "substream", recording)
    return idents


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_chunks_run_blocks_on_several_threads(monkeypatch):
    idents = _record_threads(monkeypatch)
    mc_outage(Scenario(hop_count=3, ip_over_n0=10.0), 4 * montecarlo.BLOCK_TRIALS, 3, chunks=2)
    assert len(idents) == 4
    assert len(set(idents)) >= 2


@pytest.mark.parametrize("cpus, chunks, threads", [(2, 1, 1), (1, 16, 1), (2, 16, 2), (4, 3, 3)])
def test_worker_threads_capped_by_cpu_and_chunk_count(monkeypatch, cpus, chunks, threads):
    # reported CPUs are patched, so no test asks for more threads than it may start
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    idents = _record_threads(monkeypatch)
    before = threading.active_count()
    mc_capacity(Scenario(hop_count=2, ip_over_n0=10.0), 6 * montecarlo.BLOCK_TRIALS, 3, chunks)
    assert len(idents) == 6
    assert len(set(idents)) <= threads
    assert threading.get_ident() in idents  # the caller runs blocks too
    assert threading.active_count() == before  # every worker has exited


def test_more_workers_than_cores_match_the_serial_result(monkeypatch):
    # eight workers switching every microsecond: a lost or misplaced block
    # partial would change the estimate
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
    scn = Scenario(hop_count=3, ip_over_n0=10.0, qam_order=16)
    trials = 8 * montecarlo.BLOCK_TRIALS + 5
    serial = mc_ber(scn, trials, 4, chunks=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = mc_ber(scn, trials, 4, chunks=9)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    main = threading.get_ident()
    raised_in = []
    substream = montecarlo.substream

    def failing(seed, index):
        if index == 3:  # the second chunk's first block, run by the worker
            raised_in.append(threading.get_ident())
            raise NumericError("synthetic worker failure")
        return substream(seed, index)

    monkeypatch.setattr(montecarlo, "substream", failing)
    with pytest.raises(NumericError, match="synthetic worker failure"):
        mc_ber(Scenario(hop_count=2, ip_over_n0=10.0), 5 * montecarlo.BLOCK_TRIALS, 1, chunks=2)
    assert raised_in and raised_in[0] != main


def test_different_seeds_differ():
    scn = _override_scenario([1.0])
    assert mc_outage(scn, 50_000, 1).value != mc_outage(scn, 50_000, 2).value


@pytest.mark.parametrize("ip_db", [0.0, 10.0, 20.0, 30.0])
def test_every_closed_form_on_reference_grid(ip_db):
    from cogrelay import alphas

    trials = 200_000
    c = qam_constants(4)
    for k in range(1, 6):
        scn = Scenario(hop_count=k, ip_over_n0=10 ** (ip_db / 10), gamma_th=1.0)
        a = alphas(scn)

        est = mc_outage(scn, trials, 8)
        assert abs(est.value - outage_exact(a, 1.0)) <= 3 * est.std_error

        est = mc_ber(scn, trials, 8)
        closed = e2e_ber([hop_ber(v, c) for v in a])
        assert abs(est.value - closed) <= 3 * est.std_error

        est = mc_capacity(scn, trials, 8)
        assert abs(est.value - ergodic_capacity_ind(a)) <= 3 * est.std_error


def test_std_error_scales_with_trials():
    scn = _override_scenario([1.0, 3.0])
    small = mc_capacity(scn, 100_000, 4)
    large = mc_capacity(scn, 400_000, 4)
    assert small.std_error / large.std_error == pytest.approx(2.0, abs=0.25)


def test_rejects_bad_arguments():
    scn = _override_scenario([1.0])
    with pytest.raises(ValueError):
        mc_outage(scn, 0, 1)
    with pytest.raises(ValueError):
        mc_outage(scn, 100, 1, chunks=0)


@pytest.mark.parametrize("ip_db", [-10.0, 15.0, 40.0])
@pytest.mark.parametrize("qam_order", [16, 64])
@pytest.mark.parametrize("hop_count", [1, 2, 4])
def test_conditional_estimates_agree_with_the_raw_ones(hop_count, qam_order, ip_db):
    # the raw estimator on its own seed, so the two are independent; 8
    # blocks give the raw outage about 27 events at K = 4, 40 dB
    scn = Scenario(hop_count=hop_count, ip_over_n0=10 ** (ip_db / 10), qam_order=qam_order)
    trials = 8 * montecarlo.BLOCK_TRIALS
    conditional = monte_carlo(scn, trials, 31)
    raw = raw_monte_carlo(scn, trials, 32)
    for m in montecarlo.METRICS:
        c, r = conditional[m], raw[m]
        assert abs(c.value - r.value) <= 4 * math.hypot(c.std_error, r.std_error), m


def test_conditional_outage_has_a_twentieth_of_the_raw_std_error():
    scn = Scenario(hop_count=3, ip_over_n0=1e4)
    trials = 4 * montecarlo.BLOCK_TRIALS
    conditional = mc_outage(scn, trials, 41)
    raw = raw_monte_carlo(scn, trials, 41, ("op",))["op"]
    assert 0 < conditional.std_error < raw.std_error / 20


def test_constant_values_have_zero_std_error():
    sizes = [montecarlo.BLOCK_TRIALS] * 4 + [37_857]
    partials = [montecarlo._moments(np.full(n, 0.1)) for n in sizes]
    est = montecarlo._estimate(partials, sum(sizes), 0)
    assert est.value == 0.1
    assert est.std_error == 0.0


def test_std_error_matches_a_two_pass_variance_at_300_db(monkeypatch):
    # capacity values near 33 spread by about 0.34: sum_sq - n mean^2
    # cancels there and is 1.4e-12 relative off on these draws
    blocks = []
    moments = montecarlo._moments

    def recording(values):
        blocks.append(values.copy())
        return moments(values)

    monkeypatch.setattr(montecarlo, "_moments", recording)
    trials = 1 << 20
    est = mc_capacity(Scenario(hop_count=3, ip_over_n0=1e30), trials, 5, chunks=3)
    values = np.concatenate(blocks)
    assert values.size == trials
    mean = math.fsum(values) / trials
    var = math.fsum((values - mean) ** 2) / (trials - 1)
    assert est.value == pytest.approx(mean, rel=1e-15)
    assert est.std_error == pytest.approx(math.sqrt(var / trials), rel=1e-15)


_E1_POINTS = np.concatenate([
    [5e-324, 1e-310],
    np.logspace(-300, 300, 601),
    np.linspace(0.0, 8.0, 81)[1:],
    # both sides of the switch from series to continued fraction
    np.nextafter(montecarlo._E1_SWITCH, [0.0, 4.0]),
    montecarlo._E1_SWITCH * np.array([0.99, 0.999, 1.0, 1.001, 1.01]),
])


def _exp_e1_reference(x: float) -> float:
    with mp.workdps(40):
        return float(mp.exp(x) * mp.e1(x))


@pytest.mark.parametrize("together", [False, True])
def test_exp_e1_matches_mpmath(together):
    # the series length follows the array's largest value,
    # so each point is checked alone and inside the whole array
    if together:
        ours = montecarlo._exp_e1(_E1_POINTS.copy())
    else:
        ours = [montecarlo._exp_e1(np.array([x]))[0] for x in _E1_POINTS]
    for x, value in zip(_E1_POINTS, ours):
        assert value == pytest.approx(_exp_e1_reference(x), rel=1e-13), x
