"""The benchmark's own test: tiny runs of all four workloads.

Run from the repository root with
``PYTHONPATH=src python -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    return {
        name: [run.measure(ROOT, name, SEED, 0.0, 1, out / str(i), tiny=True)
               for i in (0, 1)]
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_and_repeats_counts(tiny_runs, name):
    first, second = tiny_runs[name]
    assert first["attempted"] >= 1
    assert set(first["metrics"]) == set(run.PER_LAYER)
    for metric, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert metric in first["all_metrics"], metric
        if metric in first["metrics"]:
            assert first["metrics"][metric]["unit"] == unit
    for metric in ("setup_s", "wall_s", "peak_rss_mb"):
        assert first["all_metrics"][metric] > 0
    counted = [m for m, u in run.PER_LAYER.items() if u in ("count", "ratio")]
    assert [first["all_metrics"][m] for m in counted] == [
        second["all_metrics"][m] for m in counted]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first["correct"] and not [
        p for f in first["failures"] for p in f["problems"] if p["known"] is None]


@functools.lru_cache(maxsize=None)
def _tiny_outputs(name):
    """One tiny pass of `name` through the CLI, in this process, and its check."""
    from cogrelay import cli

    invocations = workloads.build(name, SEED, tiny=True)
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, inv in enumerate(invocations):
            config = Path(tmp) / f"config{i}.json"
            config.write_text(json.dumps(inv["config"]))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(inv["argv"] + ["--config", str(config), "--no-timestamp"])
            outputs.append((rc, out.getvalue(), err.getvalue()))
    report = checks.check(invocations, outputs, set())
    return invocations, tuple(outputs), report


def _perturb(text, row, column, factor):
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    header = lines[data[0]].split(",")
    cells = lines[data[1 + row]].split(",")
    cells[header.index(column)] = repr(float(cells[header.index(column)]) * factor)
    lines[data[1 + row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, invocation, row, column, factor", [
    ("snr_sweep", 0, 0, "capacity", 1 + 1e-6),
    ("snr_sweep", 0, 2, "ber_asymptotic", 1 - 1e-6),
    # OP near 1e-6 at 60 dB: an absolute error of 7e-14 is far above
    # cancellation's eps level, so it is no known defect
    ("snr_sweep", 0, 8, "op_exact", 1 + 5e-8),
    ("deep_chain", 0, 0, "op_exact", 1 + 1e-7),
    ("layout_sweep", 0, 1, "op_exact", 1 + 1e-6),
    ("layout_sweep", 2, 0, "d_data", 1 + 1e-6),
    ("mc_verify", 0, 1, "value", 1.5),
    ("mc_verify", 1, 2, "mc_op", 3.0),
])
def test_checker_catches_a_perturbed_output(name, invocation, row, column, factor):
    invocations, outputs, baseline = _tiny_outputs(name)
    assert not baseline.unexpected
    outputs = list(outputs)
    rc, text, err = outputs[invocation]
    outputs[invocation] = (rc, _perturb(text, row, column, factor), err)
    perturbed = checks.check(invocations, outputs, set())
    caught = {(f["invocation"], f["row"]) for f in perturbed.unexpected}
    assert (invocations[invocation]["id"], row) in caught


def test_checker_counts_a_failed_command():
    invocations, outputs, healthy = _tiny_outputs("mc_verify")
    outputs = list(outputs)
    outputs[1] = (2, "", "numeric failure: boom\n")
    report = checks.check(invocations, outputs, set())
    assert report.failed == invocations[1]["rows"] * 4  # each row and its 3 estimates
    assert report.attempted == healthy.attempted


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "snr_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
