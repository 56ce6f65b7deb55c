import json
import math
import warnings

import pytest

from cogrelay import (
    McEstimate,
    NumericError,
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
)
from cogrelay.cli import SWEEP_VARIABLES, _fmt, main, parse_sweep, scenario_at, load_scenario


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
    """The analyze rows of CLOSED_FORMS, one scalar call per point and output."""
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
            outage_asymptotic(pairs, point.ip_over_n0, point.gamma_th),
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


def test_optimize_two_hops(tmp_path, capsys):
    cfg = _write_config(tmp_path, hop_count=2, ip_over_n0_db=20.0)
    assert main(["optimize", "--config", cfg, "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    header, rows = _rows(out)
    assert header == ["hop", "d_data", "d_interference", "ratio"]
    assert float(rows[0]["d_data"]) == pytest.approx(0.5509, abs=5e-4)
    assert float(rows[1]["d_data"]) == pytest.approx(0.4491, abs=5e-4)
    meta = {
        line.split(":")[0][2:]: line.partition(":")[2].strip()
        for line in out.splitlines() if line.startswith("#") and ":" in line
    }
    assert "objective_gap" in meta
    assert float(meta["objective_gap"]) >= -1e-9
    assert "op_min" in meta and "ber_min" in meta


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
    negative_seed = _write_config(tmp_path, "negative_seed.json", seed=-5)
    bad_seed = _write_config(tmp_path, "bad_seed.json", seed="x")
    bad_chunks = _write_config(tmp_path, "bad_chunks.json", chunks="x")
    zero_chunks = _write_config(tmp_path, "zero_chunks.json", chunks=0)
    for argv in (
        ["analyze", "--config", cfg, "--sweep", "hop_count=1,x"],
        ["optimize", "--config", cfg, "--grid-resolution", "0"],
        ["optimize", "--config", cfg, "--grid-resolution", "-3"],
        # a one-point grid holds no three-hop layout with every hop positive
        ["optimize", "--config", cfg, "--grid-resolution", "1"],
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


def test_config_chunks_takes_effect_and_the_flag_wins(tmp_path, capsys, monkeypatch):
    seen = []

    def estimator(scenario, trials, seed, chunks):
        seen.append(chunks)
        return McEstimate(value=0.5, std_error=0.1, trials=trials, seed=seed)

    for name in ("mc_outage", "mc_ber", "mc_capacity"):
        monkeypatch.setattr(f"cogrelay.cli.{name}", estimator)
    cfg = _write_config(tmp_path, chunks=3)
    assert main(["mc", "--config", cfg]) == 0
    assert main(["analyze", "--config", cfg, "--outputs", "mc_op"]) == 0
    assert main(["mc", "--config", cfg, "--chunks", "2"]) == 0
    assert main(["mc", "--config", _write_config(tmp_path, "plain.json")]) == 0
    assert seen == [3, 3, 3, 3, 2, 2, 2, 1, 1, 1]
