"""One benchmark child: import cogrelay, load the configs, run passes.

Started by run.py, one at a time, as
``child.py PLAN RESULT SPAWN_NS MODE BUDGET_S SPANS``.  SPAWN_NS is the
runner's CLOCK_MONOTONIC reading just before it started this process,
so set-up time covers interpreter start, ``import cogrelay`` and
loading every config.  MODE "setup" stops there: a set-up probe.  A
pass runs every invocation of the plan once through ``cogrelay.cli.main``
with stdout and stderr captured in memory.  Passes repeat until BUDGET_S
is spent; in MODE "traced" the first half is untraced and the second
half traced, and the spans go to SPANS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback


def _run_pass(main, argvs):
    """Run every invocation once; per-invocation seconds and outputs."""
    outputs, times = [], []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except Exception:  # a traceback is an operation failure, not ours
                traceback.print_exc()
                rc = "exception"
        times.append(time.perf_counter() - start)
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return times, outputs


def _run_phase(main, argvs, budget, first, unstable, on_pass=None):
    """Passes until `budget` seconds are spent; per-pass invocation seconds."""
    passes = []
    start = time.perf_counter()
    # start another pass while at least half of a typical pass fits
    while not passes or (time.perf_counter() - start
                         + statistics.median(map(sum, passes)) / 2 <= budget):
        if on_pass is not None:
            on_pass(len(passes))
        times, outputs = _run_pass(main, argvs)
        passes.append(times)
        if not first:
            first.extend(outputs)
        # stderr is left out: Python prints a warning once per process
        unstable.update(i for i, o in enumerate(outputs) if o[:2] != first[i][:2])
    return passes


def main() -> int:
    plan_path, result_path, spawn_ns, mode, budget, spans_path = sys.argv[1:7]
    import cogrelay
    from cogrelay import capacity, cli, montecarlo, placement

    source = os.path.join(os.getcwd(), "src", "cogrelay")
    if os.path.dirname(os.path.abspath(cogrelay.__file__)) != source:
        print(f"imported {cogrelay.__file__}, not the checkout's {source}", file=sys.stderr)
        return 3
    with open(plan_path) as fh:
        plan = json.load(fh)
    for path in plan["configs"]:
        cli.load_scenario(path)
    setup_s = (time.monotonic_ns() - int(spawn_ns)) * 1e-9
    result = {"setup_s": setup_s}
    if mode == "setup":
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        return 0

    argvs = plan["argv"]
    budget = float(budget)
    traced = mode == "traced"
    first: list = []
    unstable: set = set()
    result["times"] = _run_phase(cli.main, argvs, budget / 2 if traced else budget,
                                 first, unstable)
    if traced:
        from spans import MAIN_SPAN, SpanRecorder

        recorder = SpanRecorder()
        uninstall = recorder.install(
            {"cli": cli, "capacity": capacity, "montecarlo": montecarlo,
             "placement": placement})
        traced_main = recorder.wrap(cli.main, MAIN_SPAN)
        try:
            result["traced_times"] = _run_phase(
                traced_main, argvs, budget / 2, first, unstable,
                on_pass=lambda n: setattr(recorder, "run_id", n))
        finally:
            uninstall()
        summaries = recorder.summarize()
        result["runs"] = [summaries[n] for n in range(len(result["traced_times"]))]
        recorder.dump(spans_path, {"argv": argvs})

    import mpmath
    import numpy
    import scipy

    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": first,
        "unstable": sorted(unstable),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "cogrelay": cogrelay.__version__,
        },
    })
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
