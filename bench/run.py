"""cogrelay benchmark runner.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a cogrelay checkout; the package is imported from
./src.  For each workload run.py first starts SETUP_PROBES fresh
processes that only import cogrelay and load the workload's configs,
then CHILDREN fresh processes that also run the workload's CLI
invocations through ``cogrelay.cli.main``, pass after pass, each with
an equal share of what is left of --seconds.  All start one at a time.
setup_s is the median set-up time of all of them.  After
the children have exited run.py checks one pass of CLI output
against 50-digit references (checks.py), writes a result file under
bench/results/ and prints every metric by name with its unit.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 is the separate
traced run: each child runs half its share untraced and half with the
span recorder (spans.py) wrapped around the layers, and the per-layer
metrics come from the traced passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
CHILDREN = 3
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170.0

# metric names and units, as BENCHMARK.json at the checkout root names them
_SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
COUNTS = ("placement.iterations", "channel.draws", "ber.instantaneous_ber.erfc_evals")
ESTIMATORS = {  # estimator span -> its CSV column
    "montecarlo.mc_outage": "mc_op",
    "montecarlo.mc_ber": "mc_ber",
    "montecarlo.mc_capacity": "mc_capacity",
}


class BenchError(Exception):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and
    # waited for, and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "cogrelay" / "cli.py").is_file():
        print("error: no ./src/cogrelay; run from the root of a cogrelay checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(root, name, args.seed, args.seconds, args.trace,
                           BENCH_DIR / "results")
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        _print_result(result)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


def measure(root: Path, name: str, seed: int, seconds: float, trace: int,
            results_dir: Path, tiny: bool = False) -> dict:
    """Run workload `name` in fresh children; write the result record and
    spans under `results_dir` and return the record."""
    invocations = workloads.build(name, seed, tiny)
    stem = f"{name}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    work = results_dir / f"work-{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = {"argv": [], "configs": []}
        for i, inv in enumerate(invocations):
            config = os.path.relpath(work / f"config{i}.json", root)
            Path(config).write_text(json.dumps(inv["config"]))
            plan["configs"].append(config)
            plan["argv"].append(inv["argv"] + ["--config", config, "--no-timestamp"])
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        start = time.perf_counter()
        probes = [
            _run_child(root, plan_path, work / f"probe{c}.json", "setup", 0.0, "-")
            for c in range(0 if tiny else SETUP_PROBES)
        ]
        children = 1 if tiny else CHILDREN
        budget = 0.0 if tiny else max(seconds - (time.perf_counter() - start), 0.0) / children
        runs = [
            _run_child(root, plan_path, work / f"child{c}.json",
                       "traced" if trace else "untraced", budget,
                       results_dir / f"{stem}.child{c}.spans.json.gz")
            for c in range(children)
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unstable = set()
    for run in runs:
        unstable.update(run["unstable"])
        unstable.update(i for i, out in enumerate(run["outputs"])
                        if out[:2] != runs[0]["outputs"][i][:2])
    check_start = time.perf_counter()
    report = checks.check(invocations, runs[0]["outputs"], unstable)
    check_s = time.perf_counter() - check_start

    walls = [sum(times) for run in runs for times in run["times"]]
    setups = [child["setup_s"] for child in probes + runs]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    if trace:
        values.update(_layer_metrics(runs, report))
    wanted = PER_LAYER if trace else END_TO_END
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "correct": not report.unexpected,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in wanted.items()},
        "all_metrics": values,
        "samples": {
            "setup_s": setups,
            "invocation_s": [run["times"] for run in runs],
            "traced_invocation_s": [run.get("traced_times") for run in runs],
            "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
        },
        "check_s": check_s,
        "environment": _environment(root, runs[0]["versions"]),
        "known_defects": checks.KNOWN_DEFECTS,
        "failures": report.failures,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))
    return result


def _run_child(root, plan_path, result_path, mode, budget, spans_path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # one thread per child: BLAS/OpenMP pools would compete for the 2 cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(BENCH_DIR / "child.py"), str(plan_path),
               str(result_path), str(time.monotonic_ns()), mode, repr(budget),
               str(spans_path)]
    try:
        proc = subprocess.run(command, cwd=root, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child exceeded {CHILD_TIMEOUT_S:g} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(result_path).read_text())


def _layer_value(metric: str, summary: dict) -> float:
    layers = summary["layers"]
    if metric in COUNTS:
        return summary["counts"].get(metric, 0)
    if metric == "cli.self_s":
        return layers.get(spans.MAIN_SPAN, {}).get("self_s", 0.0)
    if metric == "montecarlo.self_s":
        return sum(layers.get(span, {}).get("self_s", 0.0) for span in ESTIMATORS)
    span, _, field = metric.rpartition(".")
    return layers.get(span, {}).get(field, 0)


def _layer_metrics(runs: list, report: checks.Report) -> dict:
    summaries = [s for run in runs for s in run["runs"]]
    values = {}
    for metric in PER_LAYER:
        if metric.endswith("t1pct_s") or metric in ("check.fail_share", "trace.overhead_s"):
            continue
        values[metric] = statistics.median(_layer_value(metric, s) for s in summaries)
    # time to 1% relative standard error at the rare-outage point: the
    # estimator's call time times (relative SE / 0.01)^2
    rare = report.estimates.get(("mc_analyze", workloads.RARE_DB), {})
    rare_ip = 10.0 ** (workloads.RARE_DB / 10.0)
    for span, column in ESTIMATORS.items():
        calls = [t["busy_s"] for s in summaries for t in s["tagged"]
                 if t["name"] == span and math.isclose(t["ip_over_n0"], rare_ip)]
        value = 0.0
        if calls and column in rare and rare[column][0] > 0:
            estimate, se = rare[column]
            value = statistics.median(calls) * (se / estimate / 0.01) ** 2
        values[f"{span}.t1pct_s"] = value
    values["check.fail_share"] = report.failed / report.attempted
    def median_wall(key):
        return statistics.median(sum(times) for run in runs for times in run[key])

    values["trace.overhead_s"] = median_wall("traced_times") - median_wall("times")
    return values


def _environment(root: Path, versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }


def _git_commit(root: Path):
    """HEAD of the checkout read from .git directly; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _print_result(result: dict) -> None:
    name = result["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{name:13s} {metric:42s} {entry['value']:.6g} {entry['unit']}")
    print(f"{name:13s} {'operations':42s} {result['attempted']} attempted, "
          f"{result['failed']} failed, correct={result['correct']}")
    by_class: dict = {}
    for failure in result["failures"]:
        for problem in failure["problems"]:
            key = problem["known"] or f"UNEXPECTED {problem['check']}:{problem['column']}"
            by_class[key] = by_class.get(key, 0) + 1
    for key, count in sorted(by_class.items()):
        print(f"{name:13s}   {count:5d} x {key}")


if __name__ == "__main__":
    sys.exit(main())
