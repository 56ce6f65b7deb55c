"""Golden CLI outputs: the invocations, how one is run, and a rewrite.

Each case is a command line (without --config) and the JSON config it
reads.  A case runs in process, in a fresh directory that holds only
its config as config.json, with --no-timestamp, so the output carries
no path and no time.  tests/golden/cli.json keeps each case with its
exit code, stdout and stderr, split into lines so that a diff shows
the lines that moved; tests/test_golden.py reruns every case and
compares them byte for byte.

Run this file to rewrite tests/golden/cli.json from the cogrelay that
is importable:

    PYTHONPATH=src python3 tests/regenerate_golden.py

A change that moves a golden output names every changed cell and its
cause where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from cogrelay.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

_MC_ANALYZE = "op_exact,ber_exact,capacity,mc_op,mc_ber,mc_capacity"
_CLOSED_FORMS = "op_exact,op_asymptotic,ber_exact,ber_asymptotic,capacity,per_hop_capacity_min"
# two full trial blocks and one short one
_TRIALS = str(2 * 65_536 + 1)

# (id, argv without --config, config)
CASES: tuple[tuple[str, list[str], dict], ...] = (
    *((f"mc_chunks{c}", ["mc", "--trials", _TRIALS, "--seed", "7", "--chunks", str(c)],
       {"hop_count": 3, "qam_order": 16, "ip_over_n0_db": 15.0}) for c in (1, 2)),
    *((f"analyze_mc_chunks{c}",
       ["analyze", "--sweep", "ip_over_n0_db=10:40:15", "--outputs", _MC_ANALYZE,
        "--trials", "70001", "--seed", "3", "--chunks", str(c)],
       {"hop_count": 3, "qam_order": 16}) for c in (1, 2)),
    ("analyze_hop_count_mc",
     ["analyze", "--sweep", "hop_count=1:8:1", "--outputs", "capacity,mc_op,mc_ber,mc_capacity",
      "--trials", "70001", "--seed", "5", "--chunks", "2"],
     {"hop_count": 3, "qam_order": 64, "ip_over_n0_db": 20.0}),
    ("mc_floor_override",
     ["mc", "--trials", "70001", "--seed", "1", "--chunks", "2"],
     {"hop_count": 3, "qam_order": 16, "ip_over_n0": 1.0,
      "lambda_overrides": [[2.5e-308, 1.0], [1.0, 1.0], [1.0, 1.0]]}),
    ("mc_floor_override_gamma_th_0",
     ["mc", "--trials", "70001", "--seed", "1", "--chunks", "1"],
     {"hop_count": 3, "qam_order": 1024, "ip_over_n0": 1.0, "gamma_th": 0.0,
      "lambda_overrides": [[2.5e-308, 1.0], [1.0, 1.0], [1.0, 1.0]]}),
    ("mc_one_trial", ["mc", "--trials", "1", "--seed", "0"], {"hop_count": 1}),
    ("analyze_closed_forms",
     ["analyze", "--sweep", "ip_over_n0_db=-10:30:10", "--outputs", _CLOSED_FORMS],
     {"hop_count": 4, "qam_order": 64}),
    ("profiles",
     ["profiles", "--profiles", "uniform,optimized,random", "--seed", "2"],
     {"hop_count": 4, "pu_coord": [0.5, 0.3]}),
    ("analyze_hop_count_closed_forms",
     ["analyze", "--sweep", "hop_count=1,2,5,16,40", "--outputs", _CLOSED_FORMS],
     {"hop_count": 3, "ip_over_n0_db": 15.0}),
    ("optimize", ["optimize"], {"hop_count": 3}),
    ("optimize_not_found", ["optimize"], {"hop_count": 64, "pu_coord": [1.0, 1e-300]}),
    ("config_error_exit_1", ["analyze"], {"hop_count": 3.7}),
    ("numeric_error_exit_2", ["optimize"], {"hop_count": 3, "pu_coord": [0.0, 1e-300]}),
)


def run(argv: list[str], config: dict) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one case, run in process in a fresh
    directory with --no-timestamp."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        Path(scratch, "config.json").write_text(json.dumps(config))
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([*argv, "--config", "config.json", "--no-timestamp"])
        finally:
            os.chdir(cwd)
    return rc, out.getvalue(), err.getvalue()


def rewrite() -> None:
    cases = []
    for name, argv, config in CASES:
        rc, stdout, stderr = run(argv, config)
        cases.append({"id": name, "argv": argv, "config": config, "rc": rc,
                      "stdout": stdout.splitlines(keepends=True),
                      "stderr": stderr.splitlines(keepends=True)})
    made_on = {"machine": platform.machine(), "python": platform.python_version(),
               "numpy": np.__version__}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"made_on": made_on, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    rewrite()
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
