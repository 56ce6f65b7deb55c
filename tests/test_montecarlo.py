import os
import sys
import threading

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
    montecarlo,
    outage_exact,
    qam_constants,
)


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
