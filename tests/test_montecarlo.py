import itertools
import math
import os
import sys
import threading
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogrelay import (
    NumericError,
    Scenario,
    derive_hop_statistics,
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
from oracles import ber_chain, chan_estimate, mc_kernel, raw_monte_carlo


def _override_scenario(alphas, gamma_th=1.0, qam_order=4):
    return Scenario(
        hop_count=len(alphas),
        ip_over_n0=1.0,
        gamma_th=gamma_th,
        qam_order=qam_order,
        lambda_overrides=tuple((a, 1.0) for a in alphas),
    )


def _joint(scn, trials, seed, chunks=1, metrics=montecarlo.METRICS):
    """monte_carlo at the scenario's one point, as {metric: its estimate}."""
    estimates = monte_carlo(derive_hop_statistics(scn)[None], [scn.hop_count], scn.gamma_th,
                            qam_constants(scn.qam_order), trials, seed, chunks, metrics)
    return {metric: points[0] for metric, points in estimates.items()}


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
    exact = outage_exact(derive_hop_statistics(scn), scn.gamma_th)
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
        joint = _joint(scn, trials, 5, chunks, metrics)
        assert list(joint) == list(metrics)
        for m in metrics:
            assert joint[m].value == alone[m].value, (metrics, m)
            assert joint[m].std_error == alone[m].std_error, (metrics, m)
            assert joint[m] == alone[m]


def test_joint_pass_defaults_to_every_metric():
    scn = _override_scenario([1.0, 2.0])
    assert list(_joint(scn, 100, 1)) == ["op", "ber", "capacity"]


@pytest.mark.parametrize("metrics", [(), ("op", "op"), ("outage",), "op"])
def test_joint_pass_rejects_bad_metric_lists(metrics):
    with pytest.raises(ValueError, match="metrics"):
        _joint(_override_scenario([1.0]), 100, 1, metrics=metrics)


def test_no_metric_calls_instantaneous_ber(monkeypatch):
    def forbidden(*args):
        raise AssertionError("instantaneous_ber called")

    monkeypatch.setattr(montecarlo, "instantaneous_ber", forbidden)
    monkeypatch.setattr(ber, "instantaneous_ber", forbidden)
    scn = _override_scenario([1.0, 2.0], qam_order=16)
    assert list(_joint(scn, 1000, 1)) == list(montecarlo.METRICS)


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
    if threads == 1:  # one worker: the caller draws every block
        assert set(idents) == {threading.get_ident()}
    else:  # more: the pool's threads draw them all
        assert threading.get_ident() not in idents
        assert len(set(idents)) <= threads
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
        if index == 3:  # run by a pool thread, like every block at chunks 2
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
    trials = 200_000
    c = qam_constants(4)
    for k in range(1, 6):
        scn = Scenario(hop_count=k, ip_over_n0=10 ** (ip_db / 10), gamma_th=1.0)
        a = derive_hop_statistics(scn)

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
    conditional = _joint(scn, trials, 31)
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
    partials = [(n, *montecarlo._moments(np.full(n, 0.1))) for n in sizes]
    est = chan_estimate(partials, sum(sizes), 0)
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


@pytest.mark.parametrize("gamma_th", [1.0, 0.0])
def test_smallest_normal_alpha_gives_finite_quiet_estimates(gamma_th):
    # 1/mu = Y/alpha overflows to inf for most draws; the BER kernel took
    # inf/inf and printed nan, and 0 * inf made outage nan at gamma_th = 0
    scn = _override_scenario([2.0 ** -1022, 1.0, 1.0], gamma_th=gamma_th, qam_order=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = [_joint(scn, 150_000, 3, chunks) for chunks in (1, 2)]
    assert runs[0] == runs[1]
    for metric, estimate in runs[0].items():
        assert math.isfinite(estimate.value) and math.isfinite(estimate.std_error), metric
    # the first hop fails every trial: outage is certain (unless the
    # threshold is 0) and the bit error rate is one half
    assert runs[0]["op"].value == (1.0 if gamma_th else 0.0)
    assert runs[0]["ber"].value == 0.5
    assert 0.0 <= runs[0]["capacity"].value < 1e-300


def test_ber_cap_changes_no_bit_where_one_over_mu_is_finite():
    # each term is t/((1 + t) + sqrt(1 + t)), exactly 1 from t = 2^109 on
    t = np.geomspace(2.0 ** 109, 1e307, 20_001)
    assert np.all(t / ((t + 1.0) + np.sqrt(t + 1.0)) == 1.0)
    # so a slice with a 1/mu above the cap 2^110 max(omega), which the
    # kernel caps, gives the bits of the same slice with 1/mu at the cap
    constants = qam_constants(64)
    cap = 2.0 ** 110 * max(term[3] for term in constants.terms)
    kernel = mc_kernel("ber", _override_scenario([1.0] * 3, qam_order=64))
    inv_mu = np.exp(np.random.default_rng(5).uniform(-50.0, 50.0, size=(3, 20_000)))
    above, at = inv_mu.copy(), inv_mu.copy()
    above[0, ::3], at[0, ::3] = 1e300, cap
    above[1, ::5], at[1, ::5] = math.inf, cap
    assert kernel(above).tolist() == kernel(at).tolist()


# the largest alpha at which a draw's 1/mu can reach the 64-QAM BER cap
_CAP_ALPHA = montecarlo._DRAW_MAX / montecarlo._ber_terms(qam_constants(64))[1]


@pytest.mark.parametrize("alpha", [
    2.0 ** -1022, _CAP_ALPHA / 2, np.nextafter(_CAP_ALPHA, 0.0), _CAP_ALPHA,
    2 * _CAP_ALPHA, 1.0,
])
def test_pass_caps_one_over_mu_where_its_alphas_can_reach_the_cap(alpha):
    # the pass caps only where alpha says a draw can reach the cap; the
    # kernel caps wherever 1/mu does: the bits are the same either way
    scn = _override_scenario([1.0, alpha, 1.0], qam_order=64)
    trials = 5000
    draws = montecarlo.sample_exponential(montecarlo.substream(7, 0), (3, trials))
    with np.errstate(over="ignore"):
        inv_mu = np.maximum(draws, 1e-300) / np.array([[1.0], [alpha], [1.0]])
        values = mc_kernel("ber", scn)(inv_mu)
        reference = chan_estimate([(trials, *montecarlo._moments(values))], trials, 7)
        assert mc_ber(scn, trials, 7) == reference
    assert math.isfinite(reference.value)


def test_points_and_threads_give_the_estimates_of_one_serial_pass(monkeypatch):
    alphas = np.array([[3.0, 40.0, np.inf], [0.5, 2.0, 9.0], [7.0, np.inf, np.inf]])
    args = (alphas, [2, 3, 1], 1.0, qam_constants(16), 3 * montecarlo.BLOCK_TRIALS + 1, 4)
    together = monte_carlo(*args, 1)
    # eight workers switching every microsecond: a lost or misplaced
    # block partial would change an estimate
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert monte_carlo(*args, 9) == together
    finally:
        sys.setswitchinterval(interval)
    for i, k in enumerate([2, 3, 1]):
        alone = monte_carlo(alphas[i:i + 1, :k], [k], *args[2:], 2)
        assert {m: [e[i]] for m, e in together.items()} == alone


def test_each_block_is_drawn_once_per_pass(monkeypatch):
    # 257 points of 256 blocks: more (point, block) pairs than 65,536
    monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 16)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    n_points, trials = 257, 256 * 16
    counts = [1 + i % 3 for i in range(n_points)]
    alphas = np.geomspace(1e-3, 1e4, 3 * n_points).reshape(n_points, 3)
    args = (1.0, qam_constants(16), trials, 9)
    drawn = []
    substream = montecarlo.substream

    def recording(seed, index):
        drawn.append(index)
        return substream(seed, index)

    monkeypatch.setattr(montecarlo, "substream", recording)
    together = monte_carlo(alphas, counts, *args, 2, ("op",))["op"]
    assert sorted(drawn) == list(range(256))
    # every 16th point, each of 256 blocks on its own (its own calls for
    # all 257 would take seconds)
    for i in range(0, n_points, 16):
        k = counts[i]
        assert monte_carlo(alphas[i:i + 1, :k], [k], *args, 1, ("op",))["op"] == [together[i]], i


@pytest.mark.parametrize("chunks", [1, 3])
def test_running_merge_equals_the_reference_merge(monkeypatch, chunks):
    # each block's (mean, M2) in the order the pass takes them: point by
    # point, and each point's metrics in the order _values yields them
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    current = threading.local()
    blocks: dict[int, list] = {}
    substream, moments = montecarlo.substream, montecarlo._moments

    def drawing(seed, index):
        current.block = index
        blocks[index] = []
        return substream(seed, index)

    def recording(values):
        n = values.size
        blocks[current.block].append((n, *moments(values)))
        return blocks[current.block][-1][1:]

    monkeypatch.setattr(montecarlo, "substream", drawing)
    monkeypatch.setattr(montecarlo, "_moments", recording)
    alphas = np.array([[3.0, 40.0, np.inf], [0.5, 2.0, 9.0], [7.0, np.inf, np.inf]])
    counts, trials, seed = [2, 3, 1], 5 * montecarlo.BLOCK_TRIALS + 7, 6
    metrics = ("capacity", "op", "ber")
    estimates = monte_carlo(alphas, counts, 1.0, qam_constants(16), trials, seed, chunks, metrics)
    assert sorted(blocks) == list(range(6))
    order = [m for m in ("ber", "op", "capacity") if m in metrics]
    for i in range(len(counts)):
        for j, metric in enumerate(order):
            partials = [blocks[b][i * len(order) + j] for b in range(6)]
            assert estimates[metric][i] == chan_estimate(partials, trials, seed), (i, metric)


def _serial_pass_peak(k: int, trials: int) -> int:
    """The tracemalloc peak of a serial pass at K hops, 0 dB."""
    scn = Scenario(hop_count=k, ip_over_n0=1.0, qam_order=16)
    montecarlo.substream(0, 0)  # numpy's first seeding builds its tables
    tracemalloc.start()
    try:
        _joint(scn, trials, 3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_serial_pass_allocates_only_its_workspace():
    # a draw, the four (K, w) slice arrays (a slice of 1/mu and the BER
    # kernel's three), the rates, one metric's values and capacity's
    # mask, with w = max(8,192, 49,152 // K) = 16,384 columns at K = 3;
    # 0 dB puts the rates on both sides of its series switch, where
    # np.compress builds index arrays 8,192 long
    k, n, w = 3, montecarlo.BLOCK_TRIALS, 16_384
    workspace = 8 * (k * n + 4 * k * w + 2 * n) + n
    peak = _serial_pass_peak(k, 16 * n)
    # a (K, n) copy would add 1.5 MB, an array of n floats 0.5 MB
    assert workspace <= peak < workspace + 256 * 1024


def test_a_long_chain_holds_slices_of_8192_columns():
    # at K = 64 the width is its floor, 8,192 columns: the four slice
    # arrays are half the (K, n) draw, and a (K, w) copy would add 4 MB
    k, n, w = 64, montecarlo.BLOCK_TRIALS, 8_192
    workspace = 8 * (k * n + 4 * k * w + 2 * n) + n
    peak = _serial_pass_peak(k, 2 * n)
    assert workspace <= peak < workspace + 256 * 1024


def test_chain_gives_the_bits_of_the_four_call_recursion():
    # with the one pair (1/omega, weight/omega) = (0, 2) each hop's BER is
    # 1/mu * 2 / ((1 + 0) + sqrt(1 + 0)) = 1/mu exactly, so the kernel
    # chains the hop BERs it is given
    rng = np.random.default_rng(11)
    n = 1000
    for k in range(1, 65):
        hop = rng.uniform(0.0, 0.5, size=(k, n))
        hop[rng.random((k, n)) < 0.02] = 0.0
        hop[rng.random((k, n)) < 0.02] = 0.5
        out = np.empty(n)
        montecarlo._ber_slice(hop.copy(), [(0.0, 2.0)], out, montecarlo._Workspace(k, n))
        assert out.tolist() == ber_chain(hop).tolist(), k


def _ber_reference(inv_mu, constants) -> float:
    """The end-to-end BER at one trial's 1/mu per hop, to 50 digits: each
    hop's sum of phi t/((1 + t) + sqrt(1 + t)) / denominator over the
    QAM terms, t = 1/(omega mu), chained by the recursion."""
    with mp.workdps(50):
        hops = []
        for x in inv_mu:
            total = mp.mpf(0)
            for _, _, _, omega, phi in constants.terms:
                t = mp.mpf(x) / mp.mpf(omega)
                total += mp.mpf(phi) * t / ((1 + t) + mp.sqrt(1 + t))
            hops.append(total / mp.mpf(constants.denominator))
        out = hops[-1]
        for p in hops[-2::-1]:
            out = out * (1 - 2 * p) + p
        return out


@st.composite
def _ber_trials(draw, beyond=()):
    """(qam_order, (K, n) 1/mu): 1/mu log-uniform from 1e-30 to the
    kernel's cap, 0, the cap itself or one of beyond."""
    qam_order = draw(st.sampled_from([4, 16, 64, 256, 1024]))
    cap = montecarlo._ber_terms(qam_constants(qam_order))[1]
    k, n = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    log_x = st.floats(math.log(1e-30), math.log(cap)).map(lambda v: min(math.exp(v), cap))
    x = st.one_of(log_x, st.sampled_from([0.0, cap, *beyond]))
    inv_mu = draw(st.lists(x, min_size=k * n, max_size=k * n))
    return qam_order, np.array(inv_mu).reshape(k, n)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_ber_trials())
def test_kernel_ber_is_within_2e_15_of_a_50_digit_reference(trial):
    qam_order, inv_mu = trial
    constants = qam_constants(qam_order)
    k = len(inv_mu)
    ours = mc_kernel("ber", _override_scenario([1.0] * k, qam_order=qam_order))(inv_mu)
    for column, value in zip(inv_mu.T, ours):
        reference = _ber_reference(column.tolist(), constants)
        assert abs(mp.mpf(value) - reference) <= 2e-15 * reference, (column, value)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_ber_trials(beyond=(math.inf,)))
def test_kernel_ber_lies_in_0_to_one_half(trial):
    # from 1/mu = cap/3e5 on, a hop's BER rounded up to 5.6e-16 above 1/2
    qam_order, inv_mu = trial
    scn = _override_scenario([1.0] * len(inv_mu), qam_order=qam_order)
    values = mc_kernel("ber", scn)(inv_mu)
    assert np.all((0.0 <= values) & (values <= 0.5)), (inv_mu, values)
