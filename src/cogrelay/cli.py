"""Command-line front end: sweeps, placement optimization, profile
comparison, and Monte-Carlo verification, all emitting CSV.

Exit codes: 0 success, 1 configuration/flag error, an output that
cannot be written or memory that cannot be had, 2 numeric or
convergence failure.  Metadata lines are '#'-prefixed; re-running a
command with identical inputs reproduces the output byte for byte (the
timestamp line is suppressible with --no-timestamp).

Every column of analyze and profiles comes from its OUTPUTS evaluator
on the per-hop alphas of the sweep's points, one call per block of
points (evaluate_block).  One generator, sweep_blocks, splits every
sweep: it sorts the points by hop count and cuts them into blocks of
at most _BLOCK_CELLS alphas, built one at a time, so memory stays
bounded on long sweeps.  A block of an ip_over_n0_db, eta, pu_x or
pu_y sweep carries its (P, 1) slice of the swept value; a block of a
hop_count sweep pads each chain with alpha = +inf to its longest
chain, which no closed form counts as a hop (per_hop_capacity is +inf
there and bounds nothing).  The mc_* outputs are evaluated the same
way: the first of them a block reaches runs one monte_carlo pass over
the block's points for every mc_* output asked for, and the others
read it; mc runs monte_carlo on its one point.

optimize's op_min and ber_min are the outage and BER asymptotes on the
alphas of the balanced layout's hop lengths (with_performance), and
profiles evaluates its optimized profile on those same alphas.
lambda_overrides fix each hop's alpha/(I_p/N_0), so they apply to one
point or an ip_over_n0_db sweep only.

Every command writes through one writer, which flushes before it
returns.  A reader that closes the pipe early (analyze ... | head) ends
the command quietly with exit code 141, as a process killed by SIGPIPE;
any other failure to open or write the output exits 1 with one error
line.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .ber import QamConstants, e2e_ber, e2e_ber_asymptotic, hop_ber, qam_constants
from .capacity import ergodic_capacity_ind, per_hop_capacity
from .errors import ConfigError, ConvergenceError, NumericError
# mc_outage, mc_ber and mc_capacity are not called here; bench/spans.py
# binds them by name, so the names stay
from .montecarlo import BLOCK_TRIALS, mc_ber, mc_capacity, mc_outage, monte_carlo  # noqa: F401
from .outage import outage_asymptotic, outage_exact
from .placement import (
    PlacementResult,
    direct_search,
    placement_objective,
    solve_equal_ratio,
)
from .scenario import (
    Scenario,
    db_to_linear,
    derive_hop_statistics,
    linear_to_db,
    read_count,
    read_reals,
    scenario_from_config,
)

SWEEP_VARIABLES = ("ip_over_n0_db", "hop_count", "eta", "pu_x", "pu_y")
# mc_* output -> the monte_carlo metric behind its value and std_error
MC_OUTPUTS = {"mc_op": "op", "mc_ber": "ber", "mc_capacity": "capacity"}
_SAMPLING = f"per-block substreams, {BLOCK_TRIALS} trials per block"
DEFAULT_OUTPUTS = ("op_exact", "op_asymptotic", "ber_exact", "capacity")
MAX_SWEEP_POINTS = 1_000_000
MAX_TRIALS = 10**10  # hours of sampling; far larger block lists do not fit in memory
# alphas in one padded block of any sweep: K = 1..64 fit in one, and so
# does any one chain (MAX_HOPS is smaller)
_BLOCK_CELLS = 1 << 16


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are config errors: exit 1, not 2
        raise _UsageError(message)


def _fmt(value) -> str:
    return "%.12g" % value


@contextlib.contextmanager
def _output(args, command: str, meta: dict) -> Iterator[TextIO]:
    """--out, else stdout, with the command's '#' metadata lines written:
    flushed when the block ends, so that a failed write raises here and
    not at exit, and --out closed."""
    out = sys.stdout if args.out is None else open(args.out, "w", newline="\n")
    try:
        out.write(f"# cogrelay {__version__} {command}\n")
        if not args.no_timestamp:
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
            out.write(f"# generated: {stamp}\n")
        out.writelines(f"# {key}: {value}\n" for key, value in meta.items())
        yield out
        out.flush()
    finally:
        if out is not sys.stdout:
            out.close()


def load_scenario(path: str) -> tuple[Scenario, dict]:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return scenario_from_config(config), config


def parse_sweep(text: str) -> tuple[str, list]:
    """VAR=START:STOP:STEP (inclusive) or VAR=v1,v2,... for hop_count."""
    if "=" not in text:
        raise ConfigError(f"sweep must look like VAR=START:STOP:STEP, got {text!r}")
    name, _, rest = text.partition("=")
    if name not in SWEEP_VARIABLES:
        raise ConfigError(
            f"unknown sweep variable {name!r}; choose from {SWEEP_VARIABLES}"
        )
    if "," in rest:
        if name != "hop_count":
            raise ConfigError("list-valued sweeps are only supported for hop_count")
        try:
            values = [float(v) for v in rest.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad hop_count list {rest!r}") from exc
        return name, [read_count(v, name) for v in values]
    parts = rest.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep range must be START:STOP:STEP, got {rest!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad sweep range {rest!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"sweep range must be finite, got {rest!r}")
    if step <= 0:
        raise ConfigError("sweep step must be positive")
    if start > stop:
        raise ConfigError("sweep start must not exceed stop")
    span = (stop - start) / step
    if not span < MAX_SWEEP_POINTS:  # checked before any point is built
        raise ConfigError(
            f"sweep range {rest!r} has more than {MAX_SWEEP_POINTS} points"
        )
    count = int(round(span))
    values = [start + i * step for i in range(count + 1)]
    if values[-1] > stop + 1e-9 * step:
        values.pop()
    if name == "hop_count":
        values = [read_count(v, name) for v in values]
    return name, values


def scenario_at(base: Scenario, variable: str, value) -> Scenario:
    if variable == "ip_over_n0_db":
        return replace(base, ip_over_n0=db_to_linear(value))
    if variable == "hop_count":
        # hop-count sweeps rebuild an equidistant layout
        return replace(base, hop_count=value, relay_x_positions=None)
    if variable == "eta":
        return replace(base, path_loss_exponent=value)
    if variable == "pu_x":
        return replace(base, pu_coord=(value, base.pu_coord[1]))
    if variable == "pu_y":
        return replace(base, pu_coord=(base.pu_coord[0], value))
    raise ConfigError(f"unknown sweep variable {variable!r}")


@dataclass(frozen=True)
class _Points:
    """A block of sweep points, as arrays over a points axis."""

    index: np.ndarray       # positions of the points in the sweep
    alphas: np.ndarray      # (P, K); +inf past a chain's own hops
    hop_counts: np.ndarray  # (P,) hops of each chain


@dataclass(frozen=True)
class _Sweep:
    """What every evaluator needs besides the points; profiles sets base only."""

    base: Scenario
    constants: Optional[QamConstants] = None
    trials: int = 0
    seed: int = 0
    chunks: int = 1
    mc_metrics: tuple[str, ...] = ()  # the monte_carlo metrics of the mc_* outputs asked for
    # [block, its estimates] of the last monte_carlo pass
    _last: list = field(default_factory=lambda: [None, None], compare=False, repr=False)

    def estimates(self, points: _Points) -> dict:
        """Estimates of every metric in mc_metrics at the block's points,
        from the one monte_carlo pass that the block's mc_* evaluators share."""
        if self._last[0] is not points:
            self._last[:] = points, monte_carlo(
                points.alphas, points.hop_counts, self.base.gamma_th, self.constants,
                self.trials, self.seed, self.chunks, self.mc_metrics)
        return self._last[1]


def _without_overrides(scenario: Scenario, use: str) -> None:
    if scenario.lambda_overrides is not None:
        raise ConfigError(
            "lambda_overrides fix each hop's alpha/(I_p/N_0): they apply to one "
            f"point or an ip_over_n0_db sweep, not to {use}"
        )


def sweep_blocks(base: Scenario, variable: str, values: Sequence) -> Iterator[tuple]:
    """The sweep's points in blocks, each built when it is reached, as
    (positions in the sweep, hop counts, derive_hop_statistics keywords).

    Every sweep is split here, for analyze and profiles alike: its points
    are sorted by hop count and cut into blocks of at most _BLOCK_CELLS
    alphas, each chain padded to its block's longest (a chain longer
    than that is a block of its own).  The keywords are the block's
    (P, 1) slice of a swept column, or the hop counts of a hop_count
    sweep's chains.  Swept values obey their config key's rule, which
    holds on an interval, so the sweep's ends are checked first.
    """
    if variable != "ip_over_n0_db":
        _without_overrides(base, f"a {variable} sweep")
    for end in (min(values), max(values)):
        scenario_at(base, variable, end)
    counts = np.array(values) if variable == "hop_count" else np.full(len(values), base.hop_count)
    key, read = ("ip_over_n0", db_to_linear) if variable == "ip_over_n0_db" else (variable, float)
    order = np.argsort(counts, kind="stable")
    start = 0
    while start < len(order):
        # padded cells of the block's first j points: j * the j-th hop count
        ks = counts[order[start:start + _BLOCK_CELLS]]
        cells = ks * np.arange(1, len(ks) + 1)
        stop = start + max(1, int(np.searchsorted(cells, _BLOCK_CELLS, "right")))
        index = order[start:stop]
        start = stop
        if variable == "hop_count":
            stats = {"hop_counts": counts[index]}
        else:
            stats = {key: np.array([read(values[i]) for i in index.tolist()])[:, None]}
        yield index, counts[index], stats


def _mc_output(metric: str):
    """The evaluator of the mc_* output of a monte_carlo metric: its value
    and std_error columns."""
    def evaluate(pts: _Points, sw: _Sweep):
        estimates = sw.estimates(pts)[metric]
        return [e.value for e in estimates], [e.std_error for e in estimates]

    return evaluate


# output name -> (its columns, the evaluator that returns them over points);
# the evaluators look the library functions up by name when they run
OUTPUTS = {
    "op_exact": (("op_exact",), lambda pts, sw: (
        outage_exact(pts.alphas, sw.base.gamma_th),)),
    "op_asymptotic": (("op_asymptotic",), lambda pts, sw: (
        outage_asymptotic(pts.alphas, sw.base.gamma_th),)),
    "ber_exact": (("ber_exact",), lambda pts, sw: (
        e2e_ber(hop_ber(pts.alphas, sw.constants)),)),
    "ber_asymptotic": (("ber_asymptotic",), lambda pts, sw: (
        e2e_ber_asymptotic(pts.alphas, sw.constants),)),
    "capacity": (("capacity",), lambda pts, sw: (
        ergodic_capacity_ind(pts.alphas, pts.hop_counts),)),
    "per_hop_capacity_min": (("per_hop_capacity_min",), lambda pts, sw: (
        per_hop_capacity(pts.alphas, pts.hop_counts[:, None]).min(axis=1),)),
}
OUTPUTS.update({name: ((name, f"{name}_std_error"), _mc_output(metric))
                for name, metric in MC_OUTPUTS.items()})
OUTPUT_ORDER = tuple(OUTPUTS)


def evaluate_block(sweep: _Sweep, points: _Points, outputs: Sequence[str],
                   columns: dict, size: int) -> None:
    """Every column of the outputs at a block's points, one call per
    output, into columns: name -> its array over the sweep's `size`
    points, made when the first block reaches it."""
    for name in outputs:
        names, evaluate = OUTPUTS[name]
        for column, cells in zip(names, evaluate(points, sweep)):
            if column not in columns:
                columns[column] = np.empty(size)
            columns[column][points.index] = cells


def _parse_outputs(text: Optional[str]) -> tuple[str, ...]:
    if text is None:
        return DEFAULT_OUTPUTS
    requested = [t.strip() for t in text.split(",") if t.strip()]
    bad = [t for t in requested if t not in OUTPUT_ORDER]
    if bad:
        raise ConfigError(f"unknown outputs {bad}; choose from {OUTPUT_ORDER}")
    if not requested:
        raise ConfigError("outputs list is empty")
    # columns keep the canonical order no matter how flags were written
    return tuple(name for name in OUTPUT_ORDER if name in requested)


def _setting(args, config: dict, name: str, default: int, minimum: int) -> int:
    """The --name flag, else the config's name, else default; >= minimum."""
    value = getattr(args, name)
    if value is None:
        value = read_count(config.get(name, default), name)
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    return value


def _mc_settings(args, config: dict) -> tuple[int, int, int]:
    """Checked trials, seed and chunks of a command with Monte-Carlo flags."""
    trials = _setting(args, config, "trials", 100_000, minimum=1)
    if trials > MAX_TRIALS:
        raise ConfigError(f"trials must be <= {MAX_TRIALS}")
    seed = _setting(args, config, "seed", 0, minimum=0)
    return trials, seed, _setting(args, config, "chunks", 1, minimum=1)


def cmd_analyze(args) -> int:
    scenario, config = load_scenario(args.config)
    outputs = _parse_outputs(args.outputs)
    trials, seed, chunks = _mc_settings(args, config)
    if args.sweep:
        variable, values = parse_sweep(args.sweep)
    else:
        variable, values = "ip_over_n0_db", [linear_to_db(scenario.ip_over_n0)]
    mc_requested = [n for n in outputs if n in MC_OUTPUTS]
    header = [variable] + list(outputs)
    header += [column for n in outputs for column in OUTPUTS[n][0][1:]]
    sweep = _Sweep(scenario, qam_constants(scenario.qam_order), trials, seed, chunks,
                   tuple(MC_OUTPUTS[n] for n in mc_requested))
    columns = {}
    for index, counts, stats in sweep_blocks(scenario, variable, values):
        points = _Points(index, derive_hop_statistics(scenario, **stats), counts)
        evaluate_block(sweep, points, outputs, columns, len(values))
    rows = zip(values, *(columns.pop(name).tolist() for name in header[1:]))
    row_format = ",".join(["%.12g"] * len(header)) + "\n"
    meta = {"config": args.config, "sweep": variable}
    if mc_requested:
        header.append("trials")
        row_format = row_format[:-1] + f",{trials}\n"
        meta["seed"] = seed
        meta["sampling"] = _SAMPLING

    with _output(args, "analyze", meta) as out:
        out.write(",".join(header) + "\n")
        out.writelines(row_format % row for row in rows)
    return 0


# bench/spans.py wraps this module attribute by name: keep the name.
def with_performance(scenario: Scenario, layout: PlacementResult, constants: QamConstants):
    """(op_min, ber_min): the outage and BER asymptotes on the alphas of
    the layout's hop lengths."""
    alphas = derive_hop_statistics(scenario, layout.d_data)
    return (
        outage_asymptotic(alphas, scenario.gamma_th),
        e2e_ber_asymptotic(alphas, constants),
    )


def cmd_optimize(args) -> int:
    scenario, _ = load_scenario(args.config)
    _without_overrides(scenario, "optimize")
    k = scenario.hop_count
    eta = scenario.path_loss_exponent
    constants = qam_constants(scenario.qam_order)
    placement = solve_equal_ratio(k, scenario.pu_coord)
    op_min, ber_min = with_performance(scenario, placement, constants)
    balanced_obj = placement_objective(placement.d_data, scenario.pu_coord, eta)
    meta = {
        "config": args.config,
        "hop_count": k,
        "pu_coord": f"({_fmt(scenario.pu_coord[0])}, {_fmt(scenario.pu_coord[1])})",
        "ratio": _fmt(placement.ratio),
        "residual_norm": _fmt(placement.residual_norm),
        "iterations": placement.iterations,
        "op_min": _fmt(op_min),
        "ber_min": _fmt(ber_min),
        "objective_equal_ratio": _fmt(balanced_obj),
    }
    try:
        d_search, obj_search = direct_search(k, scenario.pu_coord, eta)
    except ConvergenceError as exc:
        meta["objective_direct_search"] = f"not found ({exc})"
    else:
        meta["objective_direct_search"] = _fmt(obj_search)
        meta["objective_gap"] = _fmt(balanced_obj - obj_search)
        meta["direct_search_d_data"] = " ".join(_fmt(v) for v in d_search)

    with _output(args, "optimize", meta) as out:
        out.write("hop,d_data,d_interference,ratio\n")
        for i, (dd, di) in enumerate(
            zip(placement.d_data, placement.d_interference), start=1
        ):
            out.write(f"{i},{_fmt(dd)},{_fmt(di)},{_fmt(dd / di)}\n")
    print(
        f"optimize: K={k} ratio={placement.ratio:.6f} "
        f"residual={placement.residual_norm:.2e} "
        f"op_min={op_min:.6g} ber_min={ber_min:.6g}",
        file=sys.stderr,
    )
    return 0


def _profile_lengths(name: str, base: Scenario, counts: np.ndarray, stats: dict,
                     table: dict, seed: int) -> np.ndarray:
    """Hop lengths of profile `name` at a block's chains, zero past each
    chain's own hops: (P, max K), or (1, K) where every chain has the
    same lengths.  Each distinct chain is laid out once; only the
    optimized profile's balanced layout moves with the primary receiver,
    and one solve per hop count lays out all of its chains' receivers."""
    pus = [None] * len(counts)
    if name == "optimized":
        pus = zip(*(np.broadcast_to(stats.get(axis, value), (len(counts), 1))[:, 0].tolist()
                    for axis, value in zip(("pu_x", "pu_y"), base.pu_coord)))
    chains = list(zip(counts.tolist(), pus))
    width = int(counts.max())
    balanced = {}
    if name == "optimized":
        receivers = {}  # hop count -> its distinct receivers, in block order
        for k, pu in dict.fromkeys(chains):
            receivers.setdefault(k, []).append(pu)
        for k, pu_list in receivers.items():
            rows = solve_equal_ratio(k, np.array(pu_list).T).d_data.tolist()
            balanced.update(((k, pu), tuple(row)) for pu, row in zip(pu_list, rows))
    layouts = {}
    for k, pu in dict.fromkeys(chains):
        if name == "uniform":
            layout = (1.0 / k,) * k
        elif name == "random":
            layout = tuple(np.random.default_rng(seed).dirichlet(np.ones(k)).tolist())
        elif name == "optimized":
            layout = balanced[k, pu]
        elif name not in table:
            raise ConfigError(f"unknown profile {name!r}")
        elif len(table[name]) != k:
            raise ConfigError(f"profile {name!r} has {len(table[name])} distances, expected {k}")
        else:
            layout = table[name]
        layouts[k, pu] = layout + (0.0,) * (width - k)
    # one layout broadcasts: its alphas' geometry is computed once
    return np.array(list(layouts.values()) if len(layouts) == 1 else [layouts[c] for c in chains])


def _profile_table(config: dict) -> dict:
    """The config's profiles, a list of {"name", "distances"} objects, as
    name -> hop lengths: new names, positive lengths that sum to 1."""
    table = {}
    try:
        for entry in config.get("profiles", []):
            name = entry["name"]
            distances = read_reals(entry["distances"], f"profile {name!r} distances")
            if not isinstance(name, str):
                raise ConfigError(f"profile name {name!r} is not a string")
            if name in table or name in ("uniform", "optimized", "random"):
                raise ConfigError(f"profile name {name!r} is built in or already taken")
            if not all(v > 0 for v in distances):
                raise ConfigError(f"profile {name!r} has a distance that is not positive")
            if abs(sum(distances) - 1.0) > 1e-9:
                raise ConfigError(
                    f"profile {name!r} distances sum to {sum(distances)!r}, expected 1"
                )
            table[name] = distances
    except (TypeError, ValueError, OverflowError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(
            f'profiles must be [{{"name": ..., "distances": [...]}}, ...]: {exc!r}') from exc
    return table


def cmd_profiles(args) -> int:
    scenario, config = load_scenario(args.config)
    _without_overrides(scenario, "profiles")
    seed = _setting(args, config, "seed", 0, minimum=0)
    table = _profile_table(config)
    if args.profiles:  # a repeated name is evaluated and printed once
        names = list(dict.fromkeys(n.strip() for n in args.profiles.split(",") if n.strip()))
    elif table:
        names = list(table)
    else:
        names = ["uniform", "optimized"]
    if not names:
        raise ConfigError("no profiles requested")
    if args.sweep:
        variable, values = parse_sweep(args.sweep)
    else:
        variable, values = "ip_over_n0_db", [linear_to_db(scenario.ip_over_n0)]

    sweep, outputs = _Sweep(scenario), ("op_exact", "capacity")
    columns = {name: {} for name in names}
    for index, counts, stats in sweep_blocks(scenario, variable, values):
        for name in names:
            lengths = _profile_lengths(name, scenario, counts, stats, table, seed)
            points = _Points(index, derive_hop_statistics(scenario, lengths, **stats), counts)
            evaluate_block(sweep, points, outputs, columns[name], len(values))
    # (op_exact, capacity) of each profile at each point
    cells = {name: list(zip(*(c.tolist() for c in profile.values())))
             for name, profile in columns.items()}

    meta = {"config": args.config, "profiles": " ".join(names), "seed": seed}
    with _output(args, "profiles", meta) as out:
        out.write(f"{variable},profile,{','.join(outputs)}\n")
        for i, value in enumerate(values):
            for name in names:
                out.write("%.12g,%s,%.12g,%.12g\n" % (value, name, *cells[name][i]))
    return 0


def cmd_mc(args) -> int:
    scenario, config = load_scenario(args.config)
    trials, seed, chunks = _mc_settings(args, config)
    estimates = monte_carlo(derive_hop_statistics(scenario)[None], [scenario.hop_count],
                            scenario.gamma_th, qam_constants(scenario.qam_order),
                            trials, seed, chunks)
    meta = {"config": args.config, "seed": seed, "trials": trials, "sampling": _SAMPLING}
    with _output(args, "mc", meta) as out:
        out.write("metric,value,std_error,trials,seed\n")
        for name, metric in MC_OUTPUTS.items():
            est = estimates[metric][0]
            out.write(
                f"{name},{_fmt(est.value)},{_fmt(est.std_error)},"
                f"{est.trials},{est.seed}\n"
            )
    return 0


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once per process: building it costs
    more than parsing (add_argument measures the terminal), and parsing
    leaves it unchanged."""
    parser = _Parser(prog="cogrelay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the generated-at metadata line")

    p = sub.add_parser("analyze", help="closed-form and simulated sweeps")
    common(p)
    p.add_argument("--sweep", default=None, metavar="VAR=START:STOP:STEP")
    p.add_argument("--outputs", default=None,
                   help=f"comma list from {', '.join(OUTPUT_ORDER)}")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--chunks", type=int, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("optimize", help="balanced-ratio relay placement")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("profiles", help="compare relay-position profiles")
    common(p)
    p.add_argument("--sweep", default=None, metavar="VAR=START:STOP:STEP")
    p.add_argument("--profiles", default=None,
                   help="comma list: uniform, optimized, random, or config names")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_profiles)

    p = sub.add_parser("mc", help="Monte-Carlo estimates with std errors")
    common(p)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--chunks", type=int, default=None)
    p.set_defaults(func=cmd_mc)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try fewer hops, sweep points or --chunks",
              file=sys.stderr)
        return 1
    except OSError as exc:
        # load_scenario turns the config's OSError into a ConfigError, so
        # this one was raised writing the output; a reader that is gone
        # ends the command quietly, as SIGPIPE would
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}",
                  file=sys.stderr)
        if args.out is None:  # what is left, and the flush at exit, go to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141 if isinstance(exc, BrokenPipeError) else 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
