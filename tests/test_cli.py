import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cogrelay
from cogrelay import (
    McEstimate,
    NumericError,
    Scenario,
    alphas,
    derive_hop_statistics,
    e2e_ber,
    e2e_ber_asymptotic,
    ergodic_capacity_ind,
    hop_ber,
    montecarlo,
    outage_asymptotic,
    outage_exact,
    per_hop_capacity,
    qam_constants,
    solve_equal_ratio,
)
from cogrelay.cli import (
    MAX_SWEEP_POINTS,
    MAX_TRIALS,
    MC_OUTPUTS,
    OUTPUT_ORDER,
    SWEEP_VARIABLES,
    _fmt,
    layout_alphas,
    load_scenario,
    main,
    parse_sweep,
    scenario_at,
)


def _write_config(tmp_path, name="config.json", **fields):
    payload = {"hop_count": 3, "ip_over_n0_db": 15.0, "gamma_th": 1.0}
    payload.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _rows(csv_text):
    lines = [l for l in csv_text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_analyze_sweep_shape_and_monotonicity(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main([
        "analyze", "--config", cfg, "--sweep", "ip_over_n0_db=0:30:1",
        "--outputs", "op_exact,op_asymptotic", "--no-timestamp",
    ]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["ip_over_n0_db", "op_exact", "op_asymptotic"]
    assert len(rows) == 31
    ops = [float(r["op_exact"]) for r in rows]
    assert all(a > b for a, b in zip(ops, ops[1:]))
    for r in rows:
        assert float(r["op_exact"]) <= float(r["op_asymptotic"]) + 1e-15


def test_analyze_single_hop_matches_direct_formulas(tmp_path, capsys):
    cfg = _write_config(tmp_path, hop_count=1, ip_over_n0_db=10.0)
    assert main([
        "analyze", "--config", cfg, "--outputs", "op_exact,ber_exact",
        "--no-timestamp",
    ]) == 0
    _, rows = _rows(capsys.readouterr().out)
    alpha = 0.060025 * 10.0
    assert float(rows[0]["op_exact"]) == pytest.approx(
        outage_exact([alpha], 1.0), rel=1e-10
    )
    assert float(rows[0]["ber_exact"]) == pytest.approx(
        hop_ber(alpha, qam_constants(4)), rel=1e-10
    )


CLOSED_FORMS = "op_exact,op_asymptotic,ber_exact,ber_asymptotic,capacity,per_hop_capacity_min"
SWEEPS = {
    "ip_over_n0_db": "ip_over_n0_db=-300:300:12.5",
    "hop_count": "hop_count=3,1,8,3,2,40,8",
    "eta": "eta=2:6:0.5",
    "pu_x": "pu_x=-1:2:0.25",
    "pu_y": "pu_y=0.05:1.5:0.15",
}


def _per_point_rows(config_path, sweep):
    """The analyze rows of CLOSED_FORMS, one scalar call per point and output.

    op_asymptotic is the paper's pair form (gamma_th/(I_p/N_0)) *
    sum_k lambda_i/lambda_d, so a printed cell that drifts from it shows.
    """
    base, _ = load_scenario(config_path)
    constants = qam_constants(base.qam_order)
    variable, values = parse_sweep(sweep)
    rows = []
    for value in values:
        point = scenario_at(base, variable, value)
        stats = derive_hop_statistics(point)
        alphas = [h.alpha for h in stats]
        pairs = [(h.lambda_d, h.lambda_i) for h in stats]
        cells = [
            outage_exact(alphas, point.gamma_th),
            (point.gamma_th / point.ip_over_n0) * sum(li / ld for ld, li in pairs),
            e2e_ber([hop_ber(a, constants) for a in alphas]),
            e2e_ber_asymptotic(alphas, constants),
            ergodic_capacity_ind(alphas),
            min(per_hop_capacity(a, point.hop_count) for a in alphas),
        ]
        rows.append(",".join(_fmt(v) for v in [value] + cells))
    return rows


@pytest.mark.parametrize("variable", SWEEP_VARIABLES)
def test_analyze_sweep_matches_per_point_scalar_calls(tmp_path, capsys, variable):
    cfg = _write_config(tmp_path, qam_order=16, pu_coord=[0.6, 0.25])
    sweep = SWEEPS[variable]
    assert main(["analyze", "--config", cfg, "--sweep", sweep,
                 "--outputs", CLOSED_FORMS, "--no-timestamp"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[0] == f"{variable},{CLOSED_FORMS}"
    assert lines[1:] == _per_point_rows(cfg, sweep)


def test_analyze_hop_count_list_sweep(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main([
        "analyze", "--config", cfg, "--sweep", "hop_count=1,2,3,5",
        "--outputs", "op_exact", "--no-timestamp",
    ]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [r["hop_count"] for r in rows] == ["1", "2", "3", "5"]


def test_analyze_eta_and_pu_sweeps(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main([
        "analyze", "--config", cfg, "--sweep", "eta=2:6:2",
        "--outputs", "op_exact", "--no-timestamp",
    ]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [r["eta"] for r in rows] == ["2", "4", "6"]
    assert main([
        "analyze", "--config", cfg, "--sweep", "pu_y=0.35:0.7:0.35",
        "--outputs", "capacity", "--no-timestamp",
    ]) == 0
    _, rows = _rows(capsys.readouterr().out)
    # a more distant primary receiver always helps
    assert float(rows[1]["capacity"]) > float(rows[0]["capacity"])


def test_analyze_mc_columns(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main([
        "analyze", "--config", cfg, "--outputs", "op_exact,mc_op",
        "--trials", "20000", "--seed", "5", "--no-timestamp",
    ]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["ip_over_n0_db", "op_exact", "mc_op", "mc_op_std_error", "trials"]
    assert rows[0]["trials"] == "20000"


def _meta(out):
    """The '# key: value' metadata lines of a CLI output."""
    return {
        line.split(":")[0][2:]: line.partition(":")[2].strip()
        for line in out.splitlines() if line.startswith("#") and ":" in line
    }


def test_optimize_two_hops(tmp_path, capsys):
    cfg = _write_config(tmp_path, hop_count=2, ip_over_n0_db=20.0)
    assert main(["optimize", "--config", cfg, "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    header, rows = _rows(out)
    assert header == ["hop", "d_data", "d_interference", "ratio"]
    assert float(rows[0]["d_data"]) == pytest.approx(0.5509, abs=5e-4)
    assert float(rows[1]["d_data"]) == pytest.approx(0.4491, abs=5e-4)
    meta = _meta(out)
    assert "objective_gap" in meta
    assert float(meta["objective_gap"]) >= -1e-9
    assert "op_min" in meta and "ber_min" in meta


@pytest.mark.parametrize("ip_db", [-20.0, 30.0])
def test_optimize_minima_are_the_asymptotes_at_the_layout(tmp_path, capsys, ip_db):
    cfg = _write_config(tmp_path, hop_count=3, ip_over_n0_db=ip_db, gamma_th=2.0,
                        path_loss_exponent=3.0, pu_coord=[0.6, 0.25])
    assert main(["optimize", "--config", cfg, "--no-timestamp"]) == 0
    out, err = capsys.readouterr()
    meta = _meta(out)
    scenario, _ = load_scenario(cfg)
    layout = solve_equal_ratio(3, scenario.pu_coord)
    # alpha_k = I_p/N_0 * (d_interference_k/d_data_k)^eta of the solved layout
    a = [scenario.ip_over_n0 * (di / d) ** 3.0
         for d, di in zip(layout.d_data, layout.d_interference)]
    assert a == pytest.approx(alphas(scenario.with_hop_distances(layout.d_data)), rel=1e-12)
    op_min = outage_asymptotic(a, 2.0)
    ber_min = e2e_ber_asymptotic(a, qam_constants(4))
    assert meta["op_min"] == _fmt(op_min)
    assert meta["ber_min"] == _fmt(ber_min)
    assert f"op_min={op_min:.6g} ber_min={ber_min:.6g}" in err
    if ip_db > 0:  # at 30 dB the QPSK asymptote is within 1% of the exact BER
        assert ber_min == pytest.approx(e2e_ber(hop_ber(a, qam_constants(4))), rel=1e-2)


def test_optimize_single_hop_zero_gap(tmp_path, capsys):
    cfg = _write_config(tmp_path, hop_count=1)
    assert main(["optimize", "--config", cfg, "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    _, rows = _rows(out)
    assert float(rows[0]["d_data"]) == 1.0
    gap = [l for l in out.splitlines() if l.startswith("# objective_gap")][0]
    assert abs(float(gap.split(":")[1])) <= 1e-9


def test_profiles_optimized_beats_uniform(tmp_path, capsys):
    cfg = _write_config(tmp_path, hop_count=2, ip_over_n0_db=20.0)
    assert main([
        "profiles", "--config", cfg, "--profiles", "uniform,optimized",
        "--no-timestamp",
    ]) == 0
    _, rows = _rows(capsys.readouterr().out)
    by_profile = {r["profile"]: float(r["op_exact"]) for r in rows}
    assert by_profile["optimized"] < by_profile["uniform"]


@pytest.mark.parametrize("k", [3, 64])
def test_profiles_optimized_is_evaluated_on_the_solved_hop_lengths(tmp_path, capsys, k):
    # the receiver 1e-300 above the destination: the balanced layout's
    # last hops are far shorter than their positions' rounding, which
    # made relay positions collide and exited 1
    cfg = _write_config(tmp_path, hop_count=k, pu_coord=[1.0, 1e-300], ip_over_n0_db=0.0)
    assert main(["profiles", "--config", cfg, "--profiles", "uniform,optimized",
                 "--no-timestamp"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    layout = solve_equal_ratio(k, (1.0, 1e-300))
    a = [(di / d) ** 4.0 for d, di in zip(layout.d_data, layout.d_interference)]
    optimized = rows[1]
    assert optimized["profile"] == "optimized"
    assert optimized["op_exact"] == _fmt(outage_exact(a, 1.0))
    assert optimized["capacity"] == _fmt(ergodic_capacity_ind(a))
    assert main(["optimize", "--config", cfg, "--no-timestamp"]) == 0
    assert _meta(capsys.readouterr().out)["op_min"] == _fmt(outage_asymptotic(a, 1.0))


def test_layout_alphas_match_math_pow_element_by_element():
    # numpy's array pow differs from the C library's in the last bit for
    # about 5% of ratios on AVX-512 CPUs; every alpha must be Python's pow
    rng = random.Random(11)
    for _ in range(60):
        k = rng.randint(1, 8)
        pu = (rng.uniform(-1.0, 2.0), rng.uniform(0.05, 2.0))
        layout = solve_equal_ratio(k, pu)
        ratios = [di / d for d, di in zip(layout.d_data, layout.d_interference)]
        for eta in (2.0, 3.0, 3.7, 4.0, 5.5):
            ip = 10.0 ** rng.uniform(-3.0, 6.0)
            scn = Scenario(hop_count=k, ip_over_n0=ip, pu_coord=pu, path_loss_exponent=eta)
            expected = [ip * math.pow(r, eta) for r in ratios]
            assert layout_alphas(scn, layout).tolist() == expected, (k, pu, eta)
    # where pow overflows, the alpha stays inf
    far = (0.5, 1e40)
    scn = Scenario(hop_count=3, ip_over_n0=1.0, pu_coord=far, path_loss_exponent=8.0)
    with pytest.raises(OverflowError):
        math.pow(1e40 * 3.0, 8.0)
    assert layout_alphas(scn, solve_equal_ratio(3, far)).tolist() == [math.inf] * 3


def test_profiles_accepts_explicit_table_distances(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, hop_count=4,
        profiles=[{
            "name": "published",
            "distances": [0.1915, 0.1900, 0.2492, 0.3693],
        }],
    )
    assert main([
        "profiles", "--config", cfg, "--profiles", "published", "--no-timestamp",
    ]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert rows[0]["profile"] == "published"
    assert 0.0 < float(rows[0]["op_exact"]) < 1.0


def test_profiles_rejects_bad_distance_sum(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, hop_count=2,
        profiles=[{"name": "broken", "distances": [0.1767, 0.8333]}],
    )
    assert main([
        "profiles", "--config", cfg, "--profiles", "broken", "--no-timestamp",
    ]) == 1


def test_profiles_random_reproducible(tmp_path, capsys):
    cfg = _write_config(tmp_path, hop_count=3)
    argv = ["profiles", "--config", cfg, "--profiles", "random",
            "--seed", "17", "--no-timestamp"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_mc_byte_identical_across_runs_and_chunks(tmp_path):
    cfg = _write_config(tmp_path)
    outputs = []
    for i, chunks in enumerate((1, 1, 4, 16)):
        path = tmp_path / f"mc{i}.csv"
        assert main([
            "mc", "--config", cfg, "--trials", "100000", "--seed", "42",
            "--chunks", str(chunks), "--out", str(path), "--no-timestamp",
        ]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


def test_mc_output_contents(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main([
        "mc", "--config", cfg, "--trials", "5000", "--seed", "1",
        "--no-timestamp",
    ]) == 0
    out = capsys.readouterr().out
    header, rows = _rows(out)
    assert header == ["metric", "value", "std_error", "trials", "seed"]
    assert [r["metric"] for r in rows] == ["mc_op", "mc_ber", "mc_capacity"]
    assert "# seed: 1" in out and "# trials: 5000" in out


@pytest.mark.parametrize("db", [0.0, 30.0, -150.0])
def test_deep_chain_capacity_finite_and_quiet(tmp_path, capsys, db):
    cfg = _write_config(tmp_path, ip_over_n0_db=db)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([
            "analyze", "--config", cfg, "--sweep", "hop_count=1:64:1",
            "--outputs", "op_exact,ber_exact,capacity,per_hop_capacity_min",
            "--no-timestamp",
        ]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    _, rows = _rows(out)
    assert len(rows) == 64
    for r in rows:
        cap = float(r["capacity"])
        assert 0.0 < cap < math.inf, r
        assert cap <= float(r["per_hop_capacity_min"]) * (1 + 1e-12), r


def test_exit_codes(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)
    assert main(["mc", "--config", cfg, "--trials", "0"]) == 1
    assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == 1
    assert main(["analyze", "--config", cfg, "--sweep", "nonsense=0:1:1"]) == 1
    assert main(["analyze", "--config", cfg, "--bogus-flag"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--config", str(bad)]) == 1
    # long chains deep below the noise floor used to end in a traceback
    deep = _write_config(tmp_path, "deep.json", ip_over_n0_db=-150.0)
    assert main(["analyze", "--config", deep, "--sweep", "hop_count=33,64"]) == 0
    # a primary receiver on a transmitter node, or so near one that its
    # channel power overflows, used to end in a traceback
    on_node = _write_config(tmp_path, "on_node.json", hop_count=2, pu_coord=[0.5, 0])
    near_node = _write_config(tmp_path, "near_node.json", hop_count=2, pu_coord=[0.5, 1e-300])
    off_node = _write_config(tmp_path, "off_node.json", hop_count=2, pu_coord=[0.5, 0.5])
    # a balanced layout whose alphas underflow: rho is about 1e5 here
    tiny_alpha = _write_config(tmp_path, "tiny_alpha.json", hop_count=2, pu_coord=[0, 1e-10],
                               path_loss_exponent=8.0, ip_over_n0=1e-300)
    negative_seed = _write_config(tmp_path, "negative_seed.json", seed=-5)
    bad_seed = _write_config(tmp_path, "bad_seed.json", seed="x")
    bad_chunks = _write_config(tmp_path, "bad_chunks.json", chunks="x")
    zero_chunks = _write_config(tmp_path, "zero_chunks.json", chunks=0)
    # JSON's Infinity: int() of it raised OverflowError, a traceback
    inf_trials = _write_config(tmp_path, "inf_trials.json", trials=math.inf)
    # counts above the cap: the block list overflowed or ran out of memory
    huge_trials = [_write_config(tmp_path, f"huge_trials_{i}.json", trials=n)
                   for i, n in enumerate((MAX_TRIALS + 1, 1e30))]
    for argv in (
        ["analyze", "--config", cfg, "--sweep", "hop_count=1,x"],
        # optimize has no grid: --grid-resolution is an unknown flag
        ["optimize", "--config", cfg, "--grid-resolution", "0"],
        ["optimize", "--config", cfg, "--grid-resolution", "-3"],
        ["optimize", "--config", cfg, "--grid-resolution", "1"],
        *([command, "--config", cfg, "--trials", str(n)]
          for command in ("mc", "analyze") for n in (MAX_TRIALS + 1, 10**30)),
        *(["mc", "--config", path] for path in huge_trials),
        ["analyze", "--config", huge_trials[1], "--outputs", "mc_op"],
        ["analyze", "--config", cfg, "--outputs", "mc_op", "--chunks", "0"],
        ["mc", "--config", cfg, "--chunks", "-1"],
        ["mc", "--config", cfg, "--seed", "-1"],
        ["analyze", "--config", cfg, "--outputs", "mc_op", "--seed", "-1"],
        ["profiles", "--config", cfg, "--profiles", "random", "--seed", "-1"],
        ["mc", "--config", negative_seed],
        ["analyze", "--config", negative_seed, "--outputs", "mc_ber"],
        ["profiles", "--config", negative_seed, "--profiles", "random"],
        ["mc", "--config", bad_seed],
        ["mc", "--config", bad_chunks],
        ["mc", "--config", zero_chunks],
        ["analyze", "--config", zero_chunks, "--outputs", "mc_op"],
        ["mc", "--config", inf_trials],
        ["analyze", "--config", inf_trials, "--outputs", "mc_ber,mc_op"],
        *([command, "--config", path] for command in ("analyze", "profiles", "mc")
          for path in (on_node, near_node)),
        ["analyze", "--config", off_node, "--sweep", "pu_y=0:1:0.5"],
        ["profiles", "--config", off_node, "--sweep", "pu_y=0:1:0.5",
         "--profiles", "uniform"],
        ["optimize", "--config", tiny_alpha],
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv

    def explode(*args, **kwargs):
        raise NumericError("synthetic failure")

    monkeypatch.setattr("cogrelay.cli.solve_equal_ratio", explode)
    assert main(["optimize", "--config", cfg]) == 2
    # a numeric failure inside a Monte-Carlo worker thread exits 2 as well
    # (4 blocks in 2 chunks: blocks 2 and 3 are the worker's)
    substream = montecarlo.substream
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(
        montecarlo, "substream",
        lambda seed, index: explode() if index >= 2 else substream(seed, index),
    )
    capsys.readouterr()
    assert main(["mc", "--config", cfg, "--trials", "200000", "--chunks", "2"]) == 2
    assert capsys.readouterr().err == "numeric failure: synthetic failure\n"


@pytest.mark.parametrize("sweep", [
    "ip_over_n0_db=4000:4000:1",   # 10**400 overflows
    "ip_over_n0_db=nan:1:1",
    "eta=inf:inf:1",
    "ip_over_n0_db=0:1e300:1e-300",  # the point count overflows
    "ip_over_n0_db=0:1e12:1",  # finite, but far too many points to build
])
def test_bad_sweep_bounds_exit_1_without_traceback(tmp_path, capsys, sweep):
    cfg = _write_config(tmp_path)
    assert main(["analyze", "--config", cfg, "--sweep", sweep]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_sweep_point_limit_is_in_the_message():
    with pytest.raises(cogrelay.ConfigError, match=str(MAX_SWEEP_POINTS)):
        parse_sweep(f"eta=0:{MAX_SWEEP_POINTS}:1")


def _modules_after(code):
    """Run code in a fresh interpreter that imports this checkout's
    cogrelay; the scipy and mpmath modules loaded by its end."""
    src = os.path.dirname(os.path.dirname(cogrelay.__file__))
    code += (
        "\nimport sys; print('\\n'.join(m for m in sys.modules if m.startswith("
        "('scipy', 'mpmath'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.split()


def test_cli_import_loads_no_scipy_special_quadrature_optimizer_or_mpmath():
    assert _modules_after("import cogrelay.cli") == []


def test_no_command_loads_scipy(tmp_path):
    cfg = _write_config(tmp_path, qam_order=16)
    # every output, closed form on both sides of hop_ber's series switch
    # and Monte Carlo, then mc, in one interpreter; optimize and profiles
    # are test_placement_commands_load_no_scipy's
    commands = [
        ["analyze", "--config", cfg, "--sweep", "ip_over_n0_db=-30:60:5",
         "--outputs", ",".join(OUTPUT_ORDER), "--trials", "1000",
         "--out", str(tmp_path / "analyze.csv")],
        ["mc", "--config", cfg, "--trials", "1000", "--chunks", "2",
         "--out", str(tmp_path / "mc.csv")],
    ]
    run = "import cogrelay.cli as cli\n" + "".join(
        f"assert cli.main({argv!r}) == 0\n" for argv in commands)
    assert _modules_after(run) == []


def test_placement_commands_load_no_scipy(tmp_path):
    run = "import cogrelay.cli as cli; assert cli.main({!r}) == 0"
    for k in (3, 8):
        cfg = _write_config(tmp_path, f"k{k}.json", hop_count=k)
        optimize = ["optimize", "--config", cfg, "--out", str(tmp_path / f"opt{k}.csv")]
        assert _modules_after(run.format(optimize)) == [], k
    profiles = ["profiles", "--config", cfg, "--profiles", "uniform,optimized,random",
                "--out", str(tmp_path / "profiles.csv")]
    assert _modules_after(run.format(profiles)) == []


def test_config_chunks_takes_effect_and_the_flag_wins(tmp_path, capsys, monkeypatch):
    seen = []

    def estimator(scenario, trials, seed, chunks, metrics=montecarlo.METRICS):
        seen.append(chunks)
        return {m: McEstimate(value=0.5, std_error=0.1, trials=trials, seed=seed)
                for m in metrics}

    monkeypatch.setattr("cogrelay.cli.monte_carlo", estimator)
    cfg = _write_config(tmp_path, chunks=3)
    assert main(["mc", "--config", cfg]) == 0
    assert main(["analyze", "--config", cfg, "--outputs", "mc_op"]) == 0
    assert main(["mc", "--config", cfg, "--chunks", "2"]) == 0
    assert main(["mc", "--config", _write_config(tmp_path, "plain.json")]) == 0
    # one monte_carlo call per command and point
    assert seen == [3, 3, 2, 1]


def _count_samplings(monkeypatch):
    """A list that grows by one at every montecarlo.sample_exponential call."""
    calls = []
    sample = montecarlo.sample_exponential

    def counting(*args):
        calls.append(None)
        return sample(*args)

    monkeypatch.setattr(montecarlo, "sample_exponential", counting)
    return calls


def test_mc_samples_each_block_once_for_all_three_metrics(tmp_path, capsys, monkeypatch):
    calls = _count_samplings(monkeypatch)
    # 200000 trials fill 4 blocks of 65536
    assert main(["mc", "--config", _write_config(tmp_path), "--trials", "200000"]) == 0
    assert len(calls) == 4


def test_analyze_samples_each_point_once_for_all_mc_outputs(tmp_path, capsys, monkeypatch):
    calls = _count_samplings(monkeypatch)
    assert main([
        "analyze", "--config", _write_config(tmp_path), "--sweep", "ip_over_n0_db=10:20:10",
        "--outputs", "mc_op,mc_ber,mc_capacity", "--trials", "200000",
    ]) == 0
    assert len(calls) == 4 * 2


# setting -> (minimum, default) of the Monte-Carlo settings
MC_SETTINGS = {"trials": (1, 100_000), "seed": (0, 0), "chunks": (1, 1)}
# huge values never reach --trials: they would make a long run
_flag_values = {
    "trials": st.integers(1, 3000),
    "seed": st.one_of(st.integers(0, 2**32), st.just(0), st.integers(max_value=-1),
                      st.integers(2**63, 2**200)),
    "chunks": st.one_of(st.integers(1, 20), st.just(0), st.integers(max_value=-1),
                        st.integers(2**63, 2**200)),
}
_wrong_types = st.one_of(
    st.sampled_from(["", "x", "1.5", "ten", "-"]), st.none(), st.booleans(),
    st.lists(st.integers(0, 5), max_size=2), st.dictionaries(st.just("n"), st.integers(0, 5)),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(-10.0, 3000.0),
)


def _effective(name, flags, config):
    """What the CLI should take for setting `name`, or None where it must exit 1."""
    minimum, default = MC_SETTINGS[name]
    if name in flags:
        value = flags[name]
    else:
        try:
            value = int(config.get(name, default))
        except (TypeError, ValueError, OverflowError):
            return None
    return value if value >= minimum else None


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    command=st.sampled_from(["mc", "analyze"]),
    outputs=st.lists(st.sampled_from(list(MC_OUTPUTS)), min_size=1, max_size=3, unique=True),
    two_points=st.booleans(),
    hop_count=st.integers(1, 64),
    ip_db=st.one_of(st.floats(-300.0, 300.0), st.sampled_from([-300.0, 300.0])),
    flags=st.fixed_dictionaries({}, optional=_flag_values),
    config=st.fixed_dictionaries({}, optional={
        # trials left to the config stay small, so every run is short
        "trials": st.one_of(st.integers(1, 3000), _wrong_types),
        "seed": st.one_of(_flag_values["seed"], _wrong_types),
        "chunks": st.one_of(_flag_values["chunks"], _wrong_types),
    }),
)
def test_mc_flags_fuzz_exit_code_contract(tmp_path_factory, command, outputs, two_points,
                                          hop_count, ip_db, flags, config):
    if "trials" not in flags and "trials" not in config:
        flags = {**flags, "trials": 1000}
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps({"hop_count": hop_count, "qam_order": 16,
                                "ip_over_n0_db": ip_db, **config}))
    argv = [command, "--config", str(path), "--no-timestamp"]
    if command == "analyze":
        argv += ["--outputs", ",".join(outputs)]
        if two_points:
            argv += ["--sweep", f"ip_over_n0_db={ip_db - 10.0!r}:{ip_db!r}:10"]
    for name, value in flags.items():
        argv += [f"--{name}", str(value)]
    out, err = io.StringIO(), io.StringIO()
    # at most 2 worker threads, whatever --chunks says
    with mock.patch.object(montecarlo.os, "cpu_count", lambda: 2), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    valid = all(_effective(name, flags, config) is not None for name in MC_SETTINGS)
    assert rc == (0 if valid else 1), (argv, config, err.getvalue())
    if rc == 1:
        assert err.getvalue().startswith("error: ")
    else:
        header, rows = _rows(out.getvalue())
        if command == "mc":
            assert [r["metric"] for r in rows] == list(MC_OUTPUTS)
            estimates = [(r["metric"], r["value"], r["std_error"]) for r in rows]
        else:
            assert header[1:] == [n for n in MC_OUTPUTS if n in outputs] + [
                f"{n}_std_error" for n in MC_OUTPUTS if n in outputs] + ["trials"]
            assert len(rows) == (2 if two_points else 1)
            estimates = [(n, r[n], r[f"{n}_std_error"]) for r in rows
                         for n in MC_OUTPUTS if n in outputs]
        highest = {"mc_op": 1.0, "mc_ber": 0.5, "mc_capacity": math.inf}
        for name, value, se in estimates:
            value, se = float(value), float(se)
            assert math.isfinite(value) and math.isfinite(se), (argv, name)
            assert 0.0 <= value <= highest[name] and se >= 0.0, (argv, name, value, se)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    hop_count=st.integers(1, 64),
    px=st.floats(-2.0, 3.0),
    py=st.one_of(st.sampled_from([0.0, 1e-300, 1e-8, 1e-4]), st.floats(0.01, 2.0)),
    eta=st.floats(2.0, 8.0),
)
def test_optimize_fuzz_exit_code_contract(tmp_path_factory, hop_count, px, py, eta):
    path = tmp_path_factory.getbasetemp() / "fuzz_optimize.json"
    path.write_text(json.dumps({"hop_count": hop_count, "pu_coord": [px, py],
                                "path_loss_exponent": eta}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["optimize", "--config", str(path), "--no-timestamp"])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        meta = _meta(out.getvalue())
        if "objective_gap" in meta:
            gap, objective = float(meta["objective_gap"]), float(meta["objective_equal_ratio"])
            assert gap >= -1e-9 * objective, meta
        else:
            assert meta["objective_direct_search"].startswith("not found ("), meta
