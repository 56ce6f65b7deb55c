"""Span recorder for the traced run, wrapped around cogrelay from outside.

A span is (name, start, end, parent, run id).  Spans live in compact
in-memory arrays while the workload runs and are written out once, at
exit.  Layer boundaries are the public functions as the calling module
binds them (``cogrelay.cli.hop_ber``, ``cogrelay.capacity.
partial_fraction_expand``, ...), so nothing in the package changes: the
recorder swaps those module attributes for timing wrappers and puts the
originals back afterwards.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import time
from array import array
from typing import Callable, Optional

# (module, attribute, span name, hook) for every wrapped binding.  A
# hook turns a call's arguments and result into counts, kept at the
# boundary where the work happens, or into a tag on the call's span.
# Bindings that no metric names are wrapped too, so that their work is
# not counted as cli.main's self time.


def _count_iterations(rec, index, args, result):
    rec.add_count("placement.iterations", result.iterations)


def _count_draws(rec, index, args, result):
    rec.add_count("channel.draws", result.size)


def _count_erfc(rec, index, args, result):
    rec.add_count("ber.instantaneous_ber.erfc_evals", result.size * len(args[1].terms))


def _tag_snr(rec, index, args, result):
    # lets run.py find the estimator calls at the rare-outage point
    rec.tags[index] = {"ip_over_n0": args[0].ip_over_n0}


BINDINGS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "scenario_from_config", "scenario.scenario_from_config", None),
    ("cli", "derive_hop_statistics", "scenario.derive_hop_statistics", None),
    ("cli", "outage_exact", "outage.outage_exact", None),
    ("cli", "outage_asymptotic", "outage.outage_asymptotic", None),
    ("cli", "qam_constants", "ber.qam_constants", None),
    ("cli", "hop_ber", "ber.hop_ber", None),
    ("cli", "e2e_ber", "ber.e2e_ber", None),
    ("cli", "e2e_ber_asymptotic", "ber.e2e_ber_asymptotic", None),
    ("cli", "ergodic_capacity_ind", "capacity.ergodic_capacity_ind", None),
    ("cli", "per_hop_capacity", "capacity.per_hop_capacity", None),
    ("cli", "mc_outage", "montecarlo.mc_outage", _tag_snr),
    ("cli", "mc_ber", "montecarlo.mc_ber", _tag_snr),
    ("cli", "mc_capacity", "montecarlo.mc_capacity", _tag_snr),
    ("cli", "solve_equal_ratio", "placement.solve_equal_ratio", _count_iterations),
    ("cli", "direct_search", "placement.direct_search", None),
    ("cli", "placement_objective", "placement.placement_objective", None),
    ("cli", "with_performance", "placement.with_performance", None),
    ("capacity", "partial_fraction_expand", "capacity.partial_fraction_expand", None),
    ("capacity", "capacity_pole_integral", "capacity.capacity_pole_integral", None),
    ("montecarlo", "derive_hop_statistics", "scenario.derive_hop_statistics", None),
    ("montecarlo", "qam_constants", "ber.qam_constants", None),
    ("montecarlo", "substream", "channel.substream", None),
    ("montecarlo", "sample_exponential", "channel.sample_exponential", _count_draws),
    ("montecarlo", "instantaneous_ber", "ber.instantaneous_ber", _count_erfc),
    ("placement", "newton_system", "numerics.newton_system", None),
)

MAIN_SPAN = "cli.main"


class SpanRecorder:
    """In-memory spans of one process; single-threaded like the CLI."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.counts: dict[int, dict[str, int]] = {}
        self.tags: dict[int, dict] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add_count(self, key: str, value) -> None:
        run_counts = self.counts.setdefault(self.run_id, {})
        run_counts[key] = run_counts.get(key, 0) + int(value)

    def wrap(self, fn: Callable, name: str, hook: Optional[Callable] = None):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if hook is not None:
                hook(self, index, args, result)
            return result

        return traced

    def install(self, package_modules: dict) -> Callable[[], None]:
        """Wrap every binding in BINDINGS; returns the function that undoes it."""
        originals = []
        for module_name, attr, name, hook in BINDINGS:
            module = package_modules[module_name]
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, hook))

        def uninstall() -> None:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

        return uninstall

    def summarize(self) -> dict[int, dict]:
        """Per run id and span name: calls, busy and self seconds, plus
        that run's counts and tagged spans.

        Busy time is the sum of span durations; self time subtracts the
        part of each span that its direct children cover.
        """
        children: dict[int, list[int]] = {}
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                children.setdefault(parent, []).append(i)
        runs: dict[int, dict] = {}
        for i, run_id in enumerate(self.run):
            run = runs.setdefault(run_id, {
                "layers": {}, "counts": dict(self.counts.get(run_id, {})), "tagged": [],
            })
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            covered = _covered(
                [(self.start[c], self.end[c]) for c in children.get(i, [])]
            )
            entry = run["layers"].setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["busy_s"] += duration * 1e-9
            entry["self_s"] += (duration - covered) * 1e-9
            if i in self.tags:
                run["tagged"].append({"name": name, "busy_s": duration * 1e-9, **self.tags[i]})
        return runs

    def dump(self, path: str, meta: dict) -> None:
        """Write every span, columnar and gzip-compressed, as JSON."""
        payload = {
            "meta": meta,
            "names": self.names,
            "clock": "time.perf_counter_ns",
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "run": self.run.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return int(total)
