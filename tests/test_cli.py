import contextlib
import copy
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cogrelay
from cogrelay import (
    McEstimate,
    NumericError,
    Scenario,
    capacity,
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
from cogrelay import cli, placement
from cogrelay.cli import (
    MAX_SWEEP_POINTS,
    MAX_TRIALS,
    MC_OUTPUTS,
    OUTPUT_ORDER,
    SWEEP_VARIABLES,
    _fmt,
    load_scenario,
    main,
    parse_sweep,
    scenario_at,
)
from cogrelay.scenario import MAX_HOPS, MAX_QAM_ORDER


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
    # crosses capacity's route boundary (K = 4/5) and reaches 64
    "hop_count": "hop_count=3,1,8,3,2,40,8,4,5,64",
    "eta": "eta=2:6:0.5",
    "pu_x": "pu_x=-1:2:0.25",
    "pu_y": "pu_y=0.05:1.5:0.15",
}


def _per_point_rows(config_path, sweep):
    """The analyze rows of CLOSED_FORMS, one scalar call per point and output.

    Each point's alphas come from its own scenario, not from the sweep's
    column, and op_asymptotic is summed here in plain Python.
    """
    base, _ = load_scenario(config_path)
    constants = qam_constants(base.qam_order)
    variable, values = parse_sweep(sweep)
    rows = []
    for value in values:
        point = scenario_at(base, variable, value)
        alphas = derive_hop_statistics(point).tolist()
        cells = [
            outage_exact(alphas, point.gamma_th),
            point.gamma_th * sum(1.0 / a for a in alphas),
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


def _blocks(sweep, hop_count=3):
    """Each block's positions in the sweep, as analyze and profiles cut it."""
    variable, values = parse_sweep(sweep)
    base = Scenario(hop_count=hop_count)
    return [index.tolist() for index, _, _ in cli.sweep_blocks(base, variable, values)]


def test_hop_count_blocks_are_sorted_and_within_the_budget(monkeypatch):
    values = [3, 1, 8, 3, 2, 40, 8, 4, 5, 64, 7, 7]
    for budget in (64, 100, 1 << 16):
        monkeypatch.setattr(cli, "_BLOCK_CELLS", budget)
        blocks = _blocks("hop_count=" + ",".join(map(str, values)))
        assert sorted(i for block in blocks for i in block) == list(range(len(values)))
        ks = [values[i] for block in blocks for i in block]
        assert ks == sorted(values)
        assert all(len(block) * max(values[i] for i in block) <= budget for block in blocks)
    assert len(blocks) == 1


def test_hop_count_sweep_in_many_blocks_matches_per_point_calls(tmp_path, capsys,
                                                                 monkeypatch):
    # a budget of 64 alphas cuts every sweep into blocks: the hop_count
    # sweep into three, K = 1-8, 40 and 64, and the column sweeps of
    # 8-hop chains into blocks of 8 points
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 64)
    cfg = _write_config(tmp_path, hop_count=8, qam_order=16, pu_coord=[0.6, 0.25])
    for variable, sweep in SWEEPS.items():
        blocks = 3 if variable == "hop_count" else math.ceil(len(parse_sweep(sweep)[1]) / 8)
        assert len(_blocks(sweep, hop_count=8)) == blocks
        assert main(["analyze", "--config", cfg, "--sweep", sweep,
                     "--outputs", CLOSED_FORMS, "--no-timestamp"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert lines[1:] == _per_point_rows(cfg, sweep), variable


def test_hop_count_blocks_are_built_one_at_a_time(tmp_path, capsys, monkeypatch):
    # each block is evaluated before the next one's alphas are built, so a
    # long sweep holds one block, not every chain of the sweep
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 64)
    events = []
    for name in ("derive_hop_statistics", "ergodic_capacity_ind"):
        def logged(*args, name=name, original=getattr(cli, name), **kwargs):
            events.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(cli, name, logged)
    cfg = _write_config(tmp_path)
    # the 49-point ip_over_n0_db sweep of 3-hop chains is three blocks too
    for variable in ("hop_count", "ip_over_n0_db"):
        events.clear()
        assert len(_blocks(SWEEPS[variable])) == 3
        assert main(["analyze", "--config", cfg, "--sweep", SWEEPS[variable],
                     "--outputs", "capacity", "--no-timestamp"]) == 0
        assert events == ["derive_hop_statistics", "ergodic_capacity_ind"] * 3, variable


def test_a_hop_count_sweep_calls_each_closed_form_once(tmp_path, capsys, monkeypatch):
    # K = 1..64 is one padded block: a loop over hop counts would call
    # every closed form 64 times
    calls = []
    for name in ("hop_ber", "ergodic_capacity_ind"):
        def counted(*args, name=name, original=getattr(cli, name)):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(cli, name, counted)
    cfg = _write_config(tmp_path)
    assert main(["analyze", "--config", cfg, "--sweep", "hop_count=1:64:1",
                 "--outputs", CLOSED_FORMS, "--no-timestamp"]) == 0
    assert len(_rows(capsys.readouterr().out)[1]) == 64
    assert sorted(calls) == ["ergodic_capacity_ind", "hop_ber"]


def test_optimized_profiles_solve_once_per_hop_count_in_each_block(tmp_path, capsys,
                                                                   monkeypatch):
    # the balanced layouts of a block's receivers are one array solve per
    # hop count: a loop over points would call it 100 times
    calls = []

    def counted(hop_count, pu_coord, original=cli.solve_equal_ratio):
        calls.append((hop_count, len(pu_coord[0])))
        return original(hop_count, pu_coord)

    monkeypatch.setattr(cli, "solve_equal_ratio", counted)
    cfg = _write_config(tmp_path, hop_count=4, pu_coord=[0.6, 0.25])
    argv = ["profiles", "--config", cfg, "--profiles", "optimized", "--no-timestamp"]
    assert main(argv + ["--sweep", "pu_x=-1:1.97:0.03"]) == 0
    assert len(_rows(capsys.readouterr().out)[1]) == 100
    assert calls == [(4, 100)]
    # K = 2-8, 40 and 64 are three blocks of 64 alphas
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 64)
    calls.clear()
    assert main(argv + ["--sweep", "hop_count=3,8,3,2,40,8,4,5,64"]) == 0
    assert [k for k, _ in calls] == [2, 3, 4, 5, 8, 40, 64]
    assert all(n == 1 for _, n in calls)


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
    assert derive_hop_statistics(scenario, layout.d_data).tolist() == a
    op_min = outage_asymptotic(a, 2.0)
    ber_min = e2e_ber_asymptotic(a, qam_constants(4))
    assert meta["op_min"] == _fmt(op_min)
    assert meta["ber_min"] == _fmt(ber_min)
    assert f"op_min={op_min:.6g} ber_min={ber_min:.6g}" in err
    if ip_db > 0:  # at 30 dB the QPSK asymptote is within 1% of the exact BER
        assert ber_min == pytest.approx(e2e_ber(hop_ber(a, qam_constants(4))), rel=1e-2)


def test_optimize_solves_the_balanced_layout_once(tmp_path, capsys, monkeypatch):
    # direct_search shoots from the ratio optimize has solved, not from
    # a balanced layout of its own
    calls = []

    def counted(*args, original=placement.solve_equal_ratio):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "solve_equal_ratio", counted)
    monkeypatch.setattr(placement, "solve_equal_ratio", counted)
    cfg = _write_config(tmp_path, hop_count=3, pu_coord=[0.6, 0.25])
    assert main(["optimize", "--config", cfg, "--no-timestamp"]) == 0
    assert "objective_direct_search" in _meta(capsys.readouterr().out)
    assert len(calls) == 1


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
            assert derive_hop_statistics(scn, layout.d_data).tolist() == expected, (k, pu, eta)
    # where pow overflows, alpha is inf and refused (as by every command:
    # test_alpha_out_of_range_exits_1_in_every_command)
    far = (0.5, 1e40)
    scn = Scenario(hop_count=3, ip_over_n0=1.0, pu_coord=far, path_loss_exponent=8.0)
    with pytest.raises(OverflowError):
        math.pow(1e40 * 3.0, 8.0)
    with pytest.raises(cogrelay.ConfigError, match="alpha is inf"):
        derive_hop_statistics(scn, solve_equal_ratio(3, far).d_data)


@pytest.mark.parametrize("config", [
    # alpha overflows: optimize printed op_min=0 ber_min=0 with exit 0
    {"hop_count": 3, "pu_coord": [0.5, 1e40], "path_loss_exponent": 8.0},
    # alpha is subnormal: analyze printed op_asymptotic inf, mc printed nan
    {"hop_count": 3, "ip_over_n0_db": -3150.0},
])
@pytest.mark.parametrize("command", ["analyze", "mc", "optimize", "profiles"])
def test_alpha_out_of_range_exits_1_in_every_command(tmp_path, capsys, config, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path)]
    if command in ("analyze", "mc"):
        argv += ["--trials", "1000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: a hop's alpha is "), err
    assert "not a finite double >= 2^-1022" in err and "Traceback" not in err


OVERRIDES = {"hop_count": 3, "lambda_overrides": [[1e-3, 1], [1, 1], [1, 1]]}


@pytest.mark.parametrize("argv", [
    ["optimize"],
    ["profiles"],
    ["profiles", "--sweep", "ip_over_n0_db=0:10:10"],
    ["analyze", "--sweep", "hop_count=1,3"],
    ["analyze", "--sweep", "hop_count=3,3"],
    ["analyze", "--sweep", "eta=2:4:1"],
    ["analyze", "--sweep", "pu_x=0:1:0.5"],
    ["analyze", "--sweep", "pu_y=0.1:0.2:0.1", "--outputs", "mc_op", "--trials", "100"],
])
def test_lambda_overrides_are_refused_where_they_cannot_apply(tmp_path, capsys, argv):
    # they fix every alpha/(I_p/N_0): a layout or a geometry sweep used to
    # ignore them, and a hop_count sweep dropped them
    path = tmp_path / "overrides.json"
    path.write_text(json.dumps(OVERRIDES))
    assert main(argv[:1] + ["--config", str(path)] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lambda_overrides fix each hop's alpha/(I_p/N_0)"), err


def test_lambda_overrides_apply_at_one_point_and_over_an_ip_sweep(tmp_path, capsys):
    path = tmp_path / "overrides.json"
    path.write_text(json.dumps(OVERRIDES))
    assert main(["analyze", "--config", str(path), "--sweep", "ip_over_n0_db=0:10:10",
                 "--outputs", "op_exact", "--no-timestamp"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    for row, ip in zip(rows, (1.0, 10.0)):
        assert row["op_exact"] == _fmt(outage_exact([1e-3 * ip, ip, ip], 1.0))
    assert main(["mc", "--config", str(path), "--trials", "1000"]) == 0


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


def test_profiles_rejects_a_non_positive_distance(tmp_path, capsys):
    # an even eta would give a negative hop a valid-looking alpha
    cfg = _write_config(
        tmp_path, hop_count=2,
        profiles=[{"name": "backwards", "distances": [1.5, -0.5]}],
    )
    assert main(["profiles", "--config", cfg, "--profiles", "backwards"]) == 1
    assert "not positive" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [1 << 16, 64])
def test_profiles_hop_count_sweep_matches_one_point_runs(tmp_path, capsys, monkeypatch,
                                                          budget):
    # the sweep's chains share padded blocks (three at a budget of 64);
    # each row must be that of a run with its hop count in the config
    monkeypatch.setattr(cli, "_BLOCK_CELLS", budget)
    argv = ["profiles", "--profiles", "uniform,optimized,random", "--no-timestamp"]
    cfg = _write_config(tmp_path, pu_coord=[0.6, 0.25])
    sweep = SWEEPS["hop_count"]
    assert main(argv + ["--config", cfg, "--sweep", sweep]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["hop_count", "profile", "op_exact", "capacity"]
    expected = []
    for k in parse_sweep(sweep)[1]:
        point = _write_config(tmp_path, "point.json", hop_count=k, pu_coord=[0.6, 0.25])
        assert main(argv + ["--config", point]) == 0
        expected += [(str(k), r["profile"], r["op_exact"], r["capacity"])
                     for r in _rows(capsys.readouterr().out)[1]]
    assert [(r["hop_count"], r["profile"], r["op_exact"], r["capacity"]) for r in rows] == expected


def test_profiles_repeated_names_are_evaluated_and_printed_once(tmp_path, capsys,
                                                                 monkeypatch):
    solved = []
    monkeypatch.setattr(cli, "solve_equal_ratio",
                        lambda *args, original=cli.solve_equal_ratio:
                        solved.append(args) or original(*args))
    cfg = _write_config(tmp_path)
    # in first-given order, as --profiles optimized,uniform prints them
    assert main(["profiles", "--config", cfg, "--no-timestamp",
                 "--profiles", "optimized,uniform,optimized,uniform"]) == 0
    out = capsys.readouterr().out
    assert [r["profile"] for r in _rows(out)[1]] == ["optimized", "uniform"]
    assert _meta(out)["profiles"] == "optimized uniform"
    assert len(solved) == 1
    assert main(["profiles", "--config", cfg, "--no-timestamp",
                 "--profiles", "optimized,uniform"]) == 0
    assert capsys.readouterr().out == out


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


@pytest.mark.parametrize("db", [0.0, 30.0, -150.0, 300.0, -300.0])
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


def test_no_chain_builds_a_partial_fraction_expansion(tmp_path, capsys, monkeypatch):
    # capacity is the simple-pole sum or the survival quadrature at every
    # K: only partial_fraction_expand clusters poles and finds residues
    calls = []
    for name in ("_cluster_poles", "_residue_coefficients"):
        monkeypatch.setattr(capacity, name, lambda *args, name=name: calls.append(name))
    cfg = _write_config(tmp_path)
    assert main([
        "analyze", "--config", cfg, "--sweep", "hop_count=1:64:1",
        "--outputs", "capacity", "--no-timestamp",
    ]) == 0
    assert len(_rows(capsys.readouterr().out)[1]) == 64
    assert calls == []


def test_nearly_equal_hops_are_not_merged(tmp_path, capsys):
    # poles 9e-7 apart used to merge into one double pole and print
    # 0.7010621636; 40-digit mpmath gives 0.701061704076379
    cfg = tmp_path / "near.json"
    cfg.write_text(json.dumps({"hop_count": 2,
                               "lambda_overrides": [[3.0, 1.0], [3.0000027, 1.0]]}))
    assert main(["analyze", "--config", str(cfg), "--outputs", "capacity",
                 "--no-timestamp"]) == 0
    assert _rows(capsys.readouterr().out)[1] == [
        {"ip_over_n0_db": "0", "capacity": "0.701061704076"}]


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
    # finite powers whose alpha overflows ended in a ZeroDivisionError
    inf_alpha = _write_config(tmp_path, "inf_alpha.json",
                              lambda_overrides=[[1e300, 1e-300], [1, 1], [1, 1]])
    strong_hop = _write_config(tmp_path, "strong_hop.json",
                               lambda_overrides=[[1e10, 1], [1, 1], [1, 1]])
    # a receiver so far off that the placement's distances overflow
    # ended optimize and the optimized profile in a traceback
    far_off = [_write_config(tmp_path, f"far_off_{k}.json", hop_count=k, pu_coord=[1e308, 1e308])
               for k in (1, 3)]
    # counts that int() truncated: 3.7 ran three hops, true one, 16.9 16-QAM
    fractional = [_write_config(tmp_path, f"fractional_{i}.json", **{key: value})
                  for i, (key, value) in enumerate((("hop_count", 3.7), ("hop_count", True),
                                                    ("qam_order", 16.9)))]
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
        ["analyze", "--config", inf_alpha],
        ["mc", "--config", inf_alpha],
        ["analyze", "--config", strong_hop, "--sweep", "ip_over_n0_db=2990:3000:10"],
        ["analyze", "--config", inf_trials, "--outputs", "mc_ber,mc_op"],
        *([command, "--config", path] for command in ("analyze", "profiles", "mc")
          for path in (on_node, near_node)),
        ["analyze", "--config", off_node, "--sweep", "pu_y=0:1:0.5"],
        ["profiles", "--config", off_node, "--sweep", "pu_y=0:1:0.5",
         "--profiles", "uniform"],
        ["optimize", "--config", tiny_alpha],
        *([command, "--config", path] for command in ("analyze", "mc", "optimize", "profiles")
          for path in fractional + far_off),
        *(["profiles", "--config", path, "--profiles", "optimized"] for path in far_off),
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv

    def explode(*args, **kwargs):
        raise NumericError("synthetic failure")

    monkeypatch.setattr("cogrelay.cli.solve_equal_ratio", explode)
    assert main(["optimize", "--config", cfg]) == 2
    # a numeric failure inside a Monte-Carlo worker thread exits 2 as well
    # (at --chunks 2 the pool's threads run all 4 blocks)
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


def _checkout_env():
    """The environment of a fresh interpreter that imports this checkout's
    cogrelay, with stdout buffered as users run the CLI."""
    src = os.path.dirname(os.path.dirname(cogrelay.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _modules_after(code):
    """Run code in a fresh interpreter that imports this checkout's
    cogrelay; the scipy and mpmath modules loaded by its end."""
    code += (
        "\nimport sys; print('\\n'.join(m for m in sys.modules if m.startswith("
        "('scipy', 'mpmath'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_checkout_env(),
        check=True,
    )
    return result.stdout.split()


def test_closed_pipe_exits_141_without_a_traceback(tmp_path):
    # head -2: the reader leaves while about 2 MB of rows are still to come
    cfg = _write_config(tmp_path)
    with subprocess.Popen(
        [sys.executable, "-m", "cogrelay.cli", "analyze", "--config", cfg,
         "--sweep", "ip_over_n0_db=0:300:0.01", "--no-timestamp"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_checkout_env(),
    ) as proc:
        assert proc.stdout.readline().startswith(b"# cogrelay ")
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=120)
    assert rc == 141
    assert err == b""


# every command, each with an output of a few hundred bytes
SHORT_COMMANDS = {
    "analyze": ["analyze"],
    "optimize": ["optimize"],
    "profiles": ["profiles"],
    "mc": ["mc", "--trials", "1000"],
}


def _run_cli(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "cogrelay.cli", *argv],
                          stderr=subprocess.PIPE, env=_checkout_env(), **kwargs)


@pytest.mark.parametrize("command", list(SHORT_COMMANDS))
def test_short_output_into_a_closed_pipe_exits_141_silently(tmp_path, command):
    read, write = os.pipe()
    os.close(read)  # the reader has left before the command writes
    try:
        result = _run_cli(SHORT_COMMANDS[command] + ["--config", _write_config(tmp_path)],
                          stdout=write)
    finally:
        os.close(write)
    assert result.returncode == 141
    assert result.stderr == b""


_needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                     reason="needs the /dev/full device")


@pytest.mark.parametrize("target", [
    pytest.param("stdout", marks=_needs_dev_full),
    pytest.param("/dev/full", marks=_needs_dev_full),
    "missing directory",
    "directory",
])
@pytest.mark.parametrize("command", list(SHORT_COMMANDS))
def test_an_output_that_cannot_be_written_exits_1_with_one_error_line(tmp_path, command,
                                                                     target):
    argv = SHORT_COMMANDS[command] + ["--config", _write_config(tmp_path)]
    path = {"/dev/full": "/dev/full", "missing directory": str(tmp_path / "no" / "x.csv"),
            "directory": str(tmp_path)}.get(target)
    if path is None:  # stdout is the full device
        with open("/dev/full", "wb") as full:
            result = _run_cli(argv, stdout=full)
    else:
        result = _run_cli(argv + ["--out", path], stdout=subprocess.DEVNULL)
    assert result.returncode == 1
    [line] = result.stderr.decode().splitlines()
    assert line.startswith(f"error: cannot write {path or 'stdout'}: ")


@_needs_dev_full
def test_a_long_output_into_a_full_device_exits_1_with_one_error_line(tmp_path):
    # about 1 MB: the writes themselves fail, before the last flush
    with open("/dev/full", "wb") as full:
        result = _run_cli(["analyze", "--config", _write_config(tmp_path),
                           "--sweep", "ip_over_n0_db=0:100:0.01"], stdout=full)
    assert result.returncode == 1
    assert result.stderr.decode() == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("module, name", [
    (montecarlo, "_Workspace"),  # the block arrays, made by the caller
    (montecarlo, "sample_exponential"),  # a block's draw, on a pool thread at --chunks 2
    (cli, "derive_hop_statistics"),
])
@pytest.mark.parametrize("argv", [
    ["mc", "--trials", "200000", "--chunks", "1"],
    ["mc", "--trials", "200000", "--chunks", "2"],
    ["analyze", "--outputs", "op_exact,mc_op", "--trials", "200000", "--chunks", "2"],
])
def test_out_of_memory_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch, module, name,
                                                   argv):
    # the allocation fails without allocating: the patched call raises
    raised_in = []

    def exhausted(*args, **kwargs):
        raised_in.append(threading.get_ident())
        raise MemoryError

    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(module, name, exhausted)
    assert main(argv + ["--config", _write_config(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: out of memory")
    assert "Traceback" not in captured.err
    if name == "sample_exponential" and argv[-1] == "2":
        assert raised_in and threading.get_ident() not in raised_in


@pytest.mark.parametrize("argv", [
    ["analyze", "--sweep", "ip_over_n0_db=-10:30:10", "--outputs",
     ",".join(n for n in OUTPUT_ORDER if n not in MC_OUTPUTS)],
    ["analyze", "--sweep", "hop_count=3,1,5", "--outputs", "op_exact,mc_op,mc_ber,mc_capacity",
     "--trials", "3000", "--chunks", "2"],
    ["optimize"],
    ["profiles", "--sweep", "pu_x=-0.5:1.5:0.5", "--profiles", "uniform,optimized,random"],
    ["mc", "--trials", "3000"],
], ids=["analyze", "analyze_mc", "optimize", "profiles", "mc"])
def test_out_file_holds_the_bytes_printed_to_stdout(tmp_path, capsys, argv):
    argv = argv + ["--config", _write_config(tmp_path, qam_order=16), "--no-timestamp"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "out.csv"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode()
    assert printed.count("\n") > 5


def test_cli_import_loads_no_scipy_special_quadrature_optimizer_or_mpmath():
    assert _modules_after("import cogrelay.cli") == []


def test_cli_import_loads_no_thread_pool_or_logging():
    # only a Monte-Carlo pass with more than one worker imports the pool
    code = ("import sys, cogrelay.cli; "
            "print(*(m for m in ('concurrent.futures', 'logging') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_checkout_env(), check=True)
    assert result.stdout.split() == []


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

    def estimator(alphas, hop_counts, gamma_th, constants, trials, seed, chunks,
                  metrics=montecarlo.METRICS):
        seen.append(chunks)
        return {m: [McEstimate(value=0.5, std_error=0.1, trials=trials, seed=seed)]
                * len(hop_counts) for m in metrics}

    monkeypatch.setattr("cogrelay.cli.monte_carlo", estimator)
    cfg = _write_config(tmp_path, chunks=3)
    assert main(["mc", "--config", cfg]) == 0
    assert main(["analyze", "--config", cfg, "--outputs", "mc_op"]) == 0
    assert main(["mc", "--config", cfg, "--chunks", "2"]) == 0
    assert main(["mc", "--config", _write_config(tmp_path, "plain.json")]) == 0
    # one monte_carlo call per command and point
    assert seen == [3, 3, 2, 1]


def test_consecutive_commands_start_from_the_defaults(tmp_path, capsys, monkeypatch):
    # one parser serves every main() call of a process: no flag of one
    # call may carry over into the next, also after a usage error
    seen = []

    def estimator(alphas, hop_counts, gamma_th, constants, trials, seed, chunks,
                  metrics=montecarlo.METRICS):
        seen.append((trials, seed, chunks))
        return {m: [McEstimate(value=0.5, std_error=0.1, trials=trials, seed=seed)]
                * len(hop_counts) for m in metrics}

    monkeypatch.setattr("cogrelay.cli.monte_carlo", estimator)
    cfg = _write_config(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["mc", "--config", cfg, "--trials", "500", "--seed", "7", "--chunks", "2",
                 "--out", str(out), "--no-timestamp"]) == 0
    assert out.read_text().startswith("# cogrelay")
    assert main(["analyze", "--config", cfg, "--outputs", "mc_op"]) == 0
    assert main(["profiles", "--config", cfg, "--profiles", "uniform"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("# cogrelay") == 2 and stdout.count("# generated:") == 2
    assert _meta(stdout.split("# cogrelay")[2])["seed"] == "0"
    for argv in (["mc", "--config", cfg, "--seed", "x"], ["mc", "--seed", "3"],
                 ["analyze", "--config", cfg, "--chunks", "2", "--bogus"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    assert main(["mc", "--config", cfg]) == 0
    assert "# generated:" in capsys.readouterr().out
    assert seen == [(500, 7, 2), (100_000, 0, 1), (100_000, 0, 1)]


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
    argv = ["analyze", "--config", _write_config(tmp_path), "--sweep", "ip_over_n0_db=10:20:10",
            "--outputs", "mc_op,mc_ber,mc_capacity", "--trials", "200000"]
    assert main(argv) == 0
    # both points read the same 4 blocks
    assert len(calls) == 4
    # with 3 alphas a block, each K = 3 point is a sweep block of its own,
    # which reads the 4 blocks once for all three outputs
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 3)
    calls.clear()
    assert main(argv) == 0
    assert len(calls) == 8


def test_analyze_draws_each_block_once_for_every_point(tmp_path, capsys, monkeypatch):
    streams = []
    substream = montecarlo.substream

    def recording(seed, index):
        streams.append(index)
        return substream(seed, index)

    monkeypatch.setattr(montecarlo, "substream", recording)
    assert main([
        "analyze", "--config", _write_config(tmp_path), "--sweep", "ip_over_n0_db=10:30:10",
        "--outputs", "mc_op,mc_ber,mc_capacity", "--trials", str(8 * montecarlo.BLOCK_TRIALS),
    ]) == 0
    assert sorted(streams) == list(range(8))


# sweep -> the config of its point at value v
POINT_CONFIGS = {
    "ip_over_n0_db=5:35:10": lambda v: {"ip_over_n0_db": v},
    "hop_count=3,1,8,3": lambda v: {"hop_count": v},
    "eta=2:4:1": lambda v: {"path_loss_exponent": v},
    "pu_x=-0.5:1.5:1": lambda v: {"pu_coord": [v, 0.4]},
    "pu_y=0.2:1:0.4": lambda v: {"pu_coord": [0.5, v]},
}


@pytest.mark.parametrize("cells", [None, 64])
@pytest.mark.parametrize("chunks", [1, 2, 16])
@pytest.mark.parametrize("sweep", list(POINT_CONFIGS))
def test_analyze_mc_outputs_equal_mc_at_each_point(tmp_path, capsys, monkeypatch,
                                                   sweep, chunks, cells):
    # every value and std_error bit for bit, from the columns before they are printed
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    if cells is not None:
        monkeypatch.setattr(cli, "_BLOCK_CELLS", cells)
    columns, estimates = [], []
    evaluate, simulate = cli.evaluate_block, cli.monte_carlo

    def keep_columns(sweep, points, outputs, filled, size):
        evaluate(sweep, points, outputs, filled, size)
        columns[:] = [dict(filled)]  # the arrays, before analyze pops them

    def keep_estimates(*args):
        estimates.append(simulate(*args))
        return estimates[-1]

    monkeypatch.setattr(cli, "evaluate_block", keep_columns)
    monkeypatch.setattr(cli, "monte_carlo", keep_estimates)
    base = {"qam_order": 16, "ip_over_n0_db": 12.0, "pu_coord": [0.5, 0.4]}
    flags = ["--trials", str(2 * montecarlo.BLOCK_TRIALS + 777), "--seed", "9",
             "--chunks", str(chunks)]
    assert main(["analyze", "--config", _write_config(tmp_path, **base), "--sweep", sweep,
                 "--outputs", "mc_op,mc_ber,mc_capacity", *flags]) == 0
    [analyzed] = columns
    _, values = parse_sweep(sweep)
    for i, value in enumerate(values):
        point = _write_config(tmp_path, f"point{i}.json", **{**base, **POINT_CONFIGS[sweep](value)})
        estimates.clear()
        assert main(["mc", "--config", point, *flags]) == 0
        [mc] = estimates
        for name, metric in MC_OUTPUTS.items():
            assert analyzed[name][i] == mc[metric][0].value, (name, value)
            assert analyzed[f"{name}_std_error"][i] == mc[metric][0].std_error, (name, value)


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
        # the config's integer rule: 3 and 3.0 count; 3.7, true and "3" do not
        value = config.get(name, default)
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if type(value) is not int:
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


# a valid config with every numeric scenario key; each path names one number
_SCENARIO = {"hop_count": 3, "qam_order": 16, "pu_coord": [0.35, 0.35],
             "path_loss_exponent": 4.0, "ip_over_n0_db": 15.0, "gamma_th": 1.0,
             "relay_x_positions": [0.3, 0.6], "lambda_overrides": [[1, 2], [1, 1], [2, 1]]}
_NUMBERS = [("hop_count",), ("qam_order",), ("path_loss_exponent",),
            ("ip_over_n0",), ("ip_over_n0_db",), ("gamma_th",), ("gamma_th_db",),
            ("pu_coord", 0), ("pu_coord", 1), ("relay_x_positions", 0),
            ("relay_x_positions", 1), *(("lambda_overrides", k, j)
                                        for k in range(3) for j in range(2))]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    command=st.sampled_from(["analyze", "mc", "profiles", "optimize"]),
    optional=st.sets(st.sampled_from(["relay_x_positions", "lambda_overrides"])),
    changes=st.dictionaries(st.sampled_from(_NUMBERS),
                            st.sampled_from([math.nan, math.inf, -math.inf]), max_size=2),
)
def test_non_finite_scenario_values_exit_1(tmp_path_factory, command, optional, changes):
    config = copy.deepcopy(_SCENARIO)
    for key in {"relay_x_positions", "lambda_overrides"} - optional - {p[0] for p in changes}:
        del config[key]
    for path, value in changes.items():
        # a key given with its _db twin is refused, so drop the twin
        stem = path[0].removesuffix("_db")
        for twin in {stem, f"{stem}_db"} - {path[0]}:
            config.pop(twin, None)
        *parents, last = path
        target = config
        for step in parents:
            target = target[step]
        target[last] = value
    path = tmp_path_factory.getbasetemp() / "fuzz_scenario.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--no-timestamp"]
    if command == "mc":
        argv += ["--trials", "200"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert "Traceback" not in err.getvalue()
    if changes:
        assert rc == 1, (argv, config, out.getvalue())
        assert err.getvalue().startswith("error: "), (config, err.getvalue())
    elif "lambda_overrides" in config and command in ("optimize", "profiles"):
        # overrides fix every alpha/(I_p/N_0): no layout applies
        assert rc == 1, (argv, config, out.getvalue())
        assert err.getvalue().startswith("error: lambda_overrides"), err.getvalue()
    else:
        assert rc == 0, (argv, config, err.getvalue())
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue()


COMMANDS = ("analyze", "mc", "optimize", "profiles")
_BIG = 10**400  # an int that float() cannot convert
# config, extra flags and the commands that read the value; each ended in a
# traceback, or ran on a value its key's rule refuses
MALFORMED = {
    "overrides_empty_pair": ({"lambda_overrides": [[]]}, [], COMMANDS),
    "overrides_400_digits": ({"lambda_overrides": [[_BIG, 1], [1, 1], [1, 1]]}, [], COMMANDS),
    "overrides_number": ({"lambda_overrides": 5}, [], COMMANDS),
    "overrides_string": ({"lambda_overrides": [[1, "a"], [1, 1], [1, 1]]}, [], COMMANDS),
    "relays_400_digits": ({"relay_x_positions": [0.3, _BIG]}, [], COMMANDS),
    "relays_nested": ({"relay_x_positions": [[0.5]]}, [], COMMANDS),
    "relays_number": ({"relay_x_positions": 5}, [], COMMANDS),
    "pu_coord_triple": ({"pu_coord": [0.5, 0.5, 7]}, [], COMMANDS),
    "ip_twins": ({"ip_over_n0": 10.0, "ip_over_n0_db": 20.0}, [], COMMANDS),
    # counts above their caps would run for hours or run out of memory
    "hop_count_above_cap": ({"hop_count": MAX_HOPS + 1}, [], COMMANDS),
    "hop_count_1e9": ({"hop_count": 1e9}, [], COMMANDS),
    "qam_order_above_cap": ({"qam_order": 4 * MAX_QAM_ORDER}, [], COMMANDS),
    "qam_order_4_to_30": ({"qam_order": 4**30}, [], COMMANDS),
    "hop_sweep_above_cap": ({}, ["--sweep", f"hop_count=2,{MAX_HOPS + 1}"],
                            ("analyze", "profiles")),
    "hop_range_above_cap": ({}, ["--sweep", f"hop_count={MAX_HOPS}:{MAX_HOPS + 1}:1"],
                            ("analyze", "profiles")),
    # real numbers refuse strings and booleans, as counts do
    "string_eta": ({"path_loss_exponent": "4"}, [], COMMANDS),
    "boolean_gamma": ({"gamma_th": True}, [], COMMANDS),
    "string_ip_db": ({"ip_over_n0_db": "15"}, [], COMMANDS),
    "string_pu_coord": ({"pu_coord": ["0.5", 0.5]}, [], COMMANDS),
    "string_relays": ({"relay_x_positions": ["0.3", "0.6"]}, [], COMMANDS),
    "boolean_overrides": ({"lambda_overrides": [[1, True], [1, 1], [1, 1]]}, [], COMMANDS),
    "string_profile_distances": ({"profiles": [{"name": "a", "distances": ["0.2", 0.3, 0.5]}]},
                                 [], ("profiles",)),
    "gamma_twins": ({"gamma_th": 1.0, "gamma_th_db": 0.0}, [], COMMANDS),
    "fractional_trials": ({"trials": 1000.7}, [], ("analyze", "mc")),
    "string_trials": ({"trials": "1000"}, [], ("analyze", "mc")),
    "boolean_seed": ({"seed": True}, [], ("analyze", "mc", "profiles")),
    "fractional_chunks": ({"chunks": 2.9}, [], ("analyze", "mc")),
    "fractional_hop_range": ({}, ["--sweep", "hop_count=1.5:3.5:1"], ("analyze", "profiles")),
    "fractional_hop_list": ({}, ["--sweep", "hop_count=2,2.5"], ("analyze", "profiles")),
    "eta_below_2": ({}, ["--sweep", "eta=0:3:1"], ("analyze", "profiles")),
    "eta_below_2_at_start": ({}, ["--sweep", "eta=-2:2:2"], ("analyze", "profiles")),
    "profiles_number": ({"profiles": 5}, [], ("profiles",)),
    "profiles_entry_number": ({"profiles": [5]}, [], ("profiles",)),
    "profile_without_name": ({"profiles": [{"distances": [0.2, 0.3, 0.5]}]}, [], ("profiles",)),
    "profile_distances_number": ({"profiles": [{"name": "a", "distances": 5}]}, [], ("profiles",)),
    "profile_distances_string": ({"profiles": [{"name": "a", "distances": ["x", 1, 1]}]}, [],
                                 ("profiles",)),
    # printed the built-in uniform layout, and the first "a" twice
    "profile_named_uniform": ({"profiles": [{"name": "uniform", "distances": [0.2, 0.3, 0.5]}]},
                              [], ("profiles",)),
    "profile_names_repeated": ({"profiles": [{"name": "a", "distances": [0.2, 0.3, 0.5]},
                                             {"name": "a", "distances": [0.5, 0.3, 0.2]}]}, [],
                               ("profiles",)),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_values_exit_1_in_every_command_that_reads_them(tmp_path, capsys, case):
    config, flags, commands = MALFORMED[case]
    cfg = _write_config(tmp_path, **config)
    for command in commands:
        capsys.readouterr()
        assert main([command, "--config", cfg, *flags]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error: "), (command, err)
        if case.endswith("twins"):
            assert all(key in err for key in config), err


def test_real_keys_refuse_strings_and_booleans(tmp_path, capsys):
    # ran as eta = 4, gamma_th = 1 with exit 0 (op_exact 0.668028953222)
    cfg = _write_config(tmp_path, path_loss_exponent="4", gamma_th=True,
                        relay_x_positions=["0.3", "0.6"])
    assert main(["analyze", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: path_loss_exponent must be a number")


@pytest.mark.parametrize("key, value", [
    ("pu_coord", [0.5, 0.5, 7]), ("pu_coord", 0.5), ("relay_x_positions", 5),
    ("relay_x_positions", [[0.5]]), ("lambda_overrides", [[]]), ("lambda_overrides", 5),
    ("lambda_overrides", [[1, 2, 3], [1, 1], [1, 1]]), ("path_loss_exponent", 10**400),
    ("ip_over_n0_db", None), ("gamma_th", [1.0]),
])
def test_conversion_errors_name_the_key(tmp_path, capsys, key, value):
    # these printed Python's own message ("too many values to unpack",
    # "'int' object is not iterable"), which names no key
    cfg = _write_config(tmp_path, **{key: value})
    assert main(["analyze", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be") or err.startswith(f"error: {key} has"), err


def test_integral_counts_pass_everywhere(tmp_path, capsys):
    cfg = _write_config(tmp_path, trials=300.0, seed=7.0, chunks=2.0)
    assert main(["mc", "--config", cfg, "--no-timestamp"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert {(r["trials"], r["seed"]) for r in rows} == {("300", "7")}
    assert main(["analyze", "--config", cfg, "--sweep", "hop_count=2,3.0",
                 "--outputs", "op_exact", "--no-timestamp"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [r["hop_count"] for r in rows] == ["2", "3"]


def test_a_config_profile_is_evaluated_on_its_own_distances(tmp_path, capsys):
    cfg = _write_config(tmp_path, profiles=[{"name": "a", "distances": [0.2, 0.3, 0.5]},
                                            {"name": "b", "distances": [0.5, 0.3, 0.2]}])
    assert main(["profiles", "--config", cfg, "--no-timestamp"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    for row, distances in zip(rows, ([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])):
        alphas = derive_hop_statistics(load_scenario(cfg)[0], distances)
        assert row["op_exact"] == _fmt(outage_exact(alphas, 1.0))


def _cli(argv):
    """(exit code, stdout, stderr) of one in-process run on at most 2 worker threads."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(montecarlo.os, "cpu_count", lambda: 2), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), argv
    if rc == 1:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
    if rc == 2:
        assert err.getvalue().startswith("numeric failure: "), (argv, err.getvalue())
    return rc, out.getvalue(), err.getvalue()


# values that no config key takes
_JUNK = st.sampled_from([None, True, False, "", "x", "3", [], [1], {"a": 1}])
_REALS = st.sampled_from([-1.0, 0.0, 0.2, 0.35, 1.0, 2.5, 4.0, 1e308])
_DISTANCES = st.sampled_from([[1.0], [0.5, 0.5], [0.2, 0.3, 0.5], [0.25] * 4, [0.2] * 5,
                              [1.5, -0.5], ["x", 1, 1], 5, [], [0.5, 0.6], [_BIG]])
# config key -> valid values, wrong types, wrong shapes and finite values out of range
_CONFIG_VALUES = {
    "hop_count": st.one_of(st.integers(-1, 5), st.sampled_from([2.0, 2.5]),
                           st.sampled_from([MAX_HOPS + 1, 1e9, 10**30]), _JUNK),
    "qam_order": st.one_of(st.sampled_from([4, 16, 64, 16.0, 16.5, 2, 8, 0, -4]),
                           st.sampled_from([4 * MAX_QAM_ORDER, 4**30, 4.0**30]), _JUNK),
    "pu_coord": st.one_of(st.lists(st.one_of(_REALS, _JUNK), max_size=3), _JUNK),
    "path_loss_exponent": st.one_of(_REALS, st.just(_BIG), _JUNK),
    "ip_over_n0": st.one_of(_REALS, _JUNK),
    "ip_over_n0_db": st.one_of(st.sampled_from([-3200.0, -20.0, 15.0, 3100.0, _BIG]), _JUNK),
    "gamma_th": st.one_of(_REALS, _JUNK),
    "gamma_th_db": st.one_of(st.sampled_from([-3200.0, -5.0, 3.0, 3100.0]), _JUNK),
    "relay_x_positions": st.one_of(
        st.lists(st.one_of(_REALS, st.sampled_from([0.3, 0.6, _BIG]), _JUNK), max_size=4), _JUNK),
    "lambda_overrides": st.one_of(
        st.lists(st.one_of(st.lists(st.one_of(_REALS, st.just(_BIG), _JUNK), max_size=3),
                           st.just([1.0, 2.0]), _JUNK), max_size=4), _JUNK),
    "profiles": st.one_of(st.lists(st.one_of(st.fixed_dictionaries({}, optional={
        "name": st.one_of(st.sampled_from(["a", "b", "uniform", "optimized", "random"]), _JUNK),
        "distances": _DISTANCES}), _JUNK), max_size=3), _JUNK),
    "trials": st.one_of(st.integers(-1, 300), st.sampled_from([200.0, 200.5, _BIG]), _JUNK),
    "seed": st.one_of(st.integers(-1, 2**64), st.sampled_from([7.0, 7.5, _BIG]), _JUNK),
    "chunks": st.one_of(st.integers(-1, 3), st.sampled_from([2.0, 2.9]), _JUNK),
}
# sweep variable -> the values its sweeps start from; every third one or so is
# outside the variable's range
_SWEEP_STARTS = {
    "ip_over_n0_db": [-3200.0, -30.0, 15.0, 3080.0],
    "hop_count": [0.0, 1.0, 1.5, 2.0, 3.0, float(MAX_HOPS)],
    "eta": [0.0, 1.5, 2.0, 3.5],
    "pu_x": [-1.0, 0.5, 1e308],
    "pu_y": [0.0, 1e-300, 0.5, 1e308],
}


@st.composite
def _sweeps(draw):
    """A sweep spec and the values it should take, unchecked."""
    variable = draw(st.sampled_from(SWEEP_VARIABLES))
    if variable == "hop_count" and draw(st.booleans()):
        values = draw(st.lists(st.sampled_from([0, 1, 2, 2.5, 3.0]), min_size=2, max_size=3))
        return f"hop_count={','.join(map(str, values))}", values
    start = draw(st.sampled_from(_SWEEP_STARTS[variable]))
    step = draw(st.sampled_from([0.5, 1.0]))
    values = [start + i * step for i in range(draw(st.integers(1, 3)))]
    return f"{variable}={start!r}:{values[-1]!r}:{step!r}", values


def _at(config, variable, value):
    """config without what `variable`'s sweep replaces, and with `value` in it."""
    config = {k: v for k, v in config.items() if k not in {
        "ip_over_n0_db": ("ip_over_n0", "ip_over_n0_db"),
        "hop_count": ("hop_count", "relay_x_positions"),
        "eta": ("path_loss_exponent",),
        "pu_x": ("pu_coord",),
        "pu_y": ("pu_coord",),
    }[variable]}
    if variable != "ip_over_n0_db":  # overrides refuse every other sweep by design
        config.pop("lambda_overrides", None)
    if value is not None:
        key = {"eta": "path_loss_exponent", "pu_x": "pu_coord", "pu_y": "pu_coord"}.get(
            variable, variable)
        config[key] = {"pu_x": [value, 0.35], "pu_y": [0.35, value]}.get(variable, value)
    return config


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    command=st.sampled_from(COMMANDS),
    changes=st.lists(st.sampled_from(list(_CONFIG_VALUES)).flatmap(
        lambda key: st.tuples(st.just(key), _CONFIG_VALUES[key])), max_size=3),
    sweep=st.one_of(st.none(), _sweeps()),
    mc_output=st.booleans(),
    profiles=st.sampled_from([None, "uniform,optimized,random", "a", "random"]),
)
def test_every_command_keeps_the_exit_code_contract(tmp_path_factory, command, changes, sweep,
                                                     mc_output, profiles):
    config = {"hop_count": 3, "qam_order": 16, "pu_coord": [0.35, 0.35],
              "path_loss_exponent": 4.0, "ip_over_n0_db": 15.0, "gamma_th": 1.0}
    for key, _ in changes:  # a twin pair only where both twins are drawn
        config.pop({"ip_over_n0": "ip_over_n0_db", "gamma_th_db": "gamma_th"}.get(key), None)
    config.update(changes)
    path = tmp_path_factory.getbasetemp() / "fuzz_all.json"

    def run(config, spec):
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--no-timestamp"]
        if command in ("analyze", "mc") and "trials" not in config:
            argv += ["--trials", "200"]
        if command == "analyze" and mc_output:
            argv += ["--outputs", "op_exact,capacity,mc_op"]
        if command == "profiles" and profiles:
            argv += ["--profiles", profiles]
        if spec is not None and command in ("analyze", "profiles"):
            argv += ["--sweep", spec]
        return _cli(argv)[0]

    run(config, sweep and sweep[0])
    if sweep is None or command not in ("analyze", "profiles"):
        return
    # a swept value exits as the same value in the config: 1 if any point would
    spec, values = sweep
    variable = spec.partition("=")[0]
    swept = run(_at(config, variable, None), spec)
    points = [run(_at(config, variable, value), None) for value in values]
    assert swept == (1 if 1 in points else max(points)), (config, spec, points)
