"""Command-line front end: sweeps, placement optimization, profile
comparison, and Monte-Carlo verification, all emitting CSV.

Exit codes: 0 success, 1 configuration/flag error, 2 numeric or
convergence failure.  Metadata lines are '#'-prefixed; re-running a
command with identical inputs reproduces the output byte for byte
(the timestamp line is suppressible with --no-timestamp).

Every closed-form column is evaluated on the per-hop alphas of the
sweep's points.  optimize's op_min and ber_min are the outage and BER
asymptotes on the alphas of the balanced layout (with_performance), and
profiles evaluates its optimized profile on those same alphas
(layout_alphas).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .ber import QamConstants, e2e_ber, e2e_ber_asymptotic, hop_ber, qam_constants
from .capacity import ergodic_capacity_ind, per_hop_capacity
from .errors import ConfigError, NumericError
# mc_outage, mc_ber and mc_capacity are not called here; bench/spans.py
# binds them by name, so the names stay
from .montecarlo import mc_ber, mc_capacity, mc_outage, monte_carlo  # noqa: F401
from .numerics import libm_pow
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
    scenario_from_config,
)

SWEEP_VARIABLES = ("ip_over_n0_db", "hop_count", "eta", "pu_x", "pu_y")
# mc_* output -> the monte_carlo metric behind its value and std_error
MC_OUTPUTS = {"mc_op": "op", "mc_ber": "ber", "mc_capacity": "capacity"}
DEFAULT_OUTPUTS = ("op_exact", "op_asymptotic", "ber_exact", "capacity")
MAX_SWEEP_POINTS = 1_000_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are config errors: exit 1, not 2
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _open_out(path: Optional[str]):
    if path is None:
        return sys.stdout, False
    return open(path, "w", newline="\n"), True


def _write_meta(out: TextIO, command: str, args, extra: dict | None = None):
    out.write(f"# cogrelay {__version__} {command}\n")
    if not args.no_timestamp:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        out.write(f"# generated: {stamp}\n")
    for key, value in (extra or {}).items():
        out.write(f"# {key}: {value}\n")


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
            return name, [int(v) for v in rest.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad hop_count list {rest!r}") from exc
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
        values = [int(round(v)) for v in values]
    return name, values


def scenario_at(base: Scenario, variable: str, value) -> Scenario:
    if variable == "ip_over_n0_db":
        return replace(base, ip_over_n0=db_to_linear(value))
    if variable == "hop_count":
        # hop-count sweeps rebuild an equidistant layout
        return replace(
            base,
            hop_count=int(value),
            relay_x_positions=None,
            lambda_overrides=None,
        )
    if variable == "eta":
        return replace(base, path_loss_exponent=float(value))
    if variable == "pu_x":
        return replace(base, pu_coord=(float(value), base.pu_coord[1]))
    if variable == "pu_y":
        return replace(base, pu_coord=(base.pu_coord[0], float(value)))
    raise ConfigError(f"unknown sweep variable {variable!r}")


@dataclass(frozen=True)
class _Points:
    """Sweep points that share a hop count, as arrays over a points axis."""

    index: list          # positions of the points in the sweep
    alphas: np.ndarray   # (P, K)


@dataclass(frozen=True)
class _Sweep:
    """What every evaluator needs besides the points."""

    base: Scenario
    variable: str
    values: list
    constants: QamConstants
    trials: int
    seed: int
    chunks: int

    def scenario(self, i: int) -> Scenario:
        """The scenario of the sweep's point i."""
        return scenario_at(self.base, self.variable, self.values[i])


def sweep_points(base: Scenario, variable: str, values: Sequence) -> list[_Points]:
    """The sweep's points, one group per hop count.

    An I_p/N_0 sweep keeps every hop's lambda pair, so its channel
    statistics are derived once and alpha is scaled per point, with the
    same (lambda_d/lambda_i)*ip rounding as derive_hop_statistics.
    """
    if variable != "ip_over_n0_db":
        return _group([_alphas(scenario_at(base, variable, v)) for v in values])
    ips = np.array([db_to_linear(v) for v in values])
    if np.any(ips <= 0):
        raise ConfigError("ip_over_n0 must be positive (linear scale)")
    stats = derive_hop_statistics(base)
    ratios = np.array([h.lambda_d / h.lambda_i for h in stats])
    alphas = ratios * ips[:, None]
    if np.any(alphas <= 0):
        raise ConfigError("ip_over_n0 is so small that a hop's alpha is 0")
    return [_Points(list(range(len(values))), alphas)]


def _alphas(scenario: Scenario) -> list[float]:
    # through this module's derive_hop_statistics, which bench/spans.py wraps
    return [h.alpha for h in derive_hop_statistics(scenario)]


def _group(rows: Sequence[Sequence[float]]) -> list[_Points]:
    """Points' alpha rows grouped by hop count, each group in sweep order."""
    groups: dict = {}
    for i, row in enumerate(rows):
        index, group = groups.setdefault(len(row), ([], []))
        index.append(i)
        group.append(row)
    return [_Points(index, np.array(group)) for index, group in groups.values()]


def _mc_columns(points: _Points, sweep: _Sweep, names: Sequence[str]):
    """The value and std_error columns of the mc_* outputs `names`, from
    one monte_carlo pass per point."""
    metrics = tuple(MC_OUTPUTS[name] for name in names)
    passes = [
        monte_carlo(sweep.scenario(i), sweep.trials, sweep.seed, sweep.chunks, metrics)
        for i in points.index
    ]
    for metric in metrics:
        yield [p[metric].value for p in passes]
        yield [p[metric].std_error for p in passes]


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
        ergodic_capacity_ind(pts.alphas),)),
    "per_hop_capacity_min": (("per_hop_capacity_min",), lambda pts, sw: (
        per_hop_capacity(pts.alphas, pts.alphas.shape[1]).min(axis=1),)),
}
# the mc_* outputs have no evaluator of their own: _mc_columns runs them together
OUTPUTS.update({name: ((name, f"{name}_std_error"), None) for name in MC_OUTPUTS})
OUTPUT_ORDER = tuple(OUTPUTS)


def evaluate_outputs(sweep: _Sweep, points: list[_Points], outputs: Sequence[str]) -> dict:
    """Every column of the outputs, as an array over the sweep's points.

    The closed forms come first, output by output; then every point is
    simulated once for all of the requested mc_* outputs.
    """
    columns = {
        column: np.empty(len(sweep.values))
        for name in outputs for column in OUTPUTS[name][0]
    }
    mc = [name for name in outputs if name in MC_OUTPUTS]
    for name in outputs:
        if name in mc:
            continue
        names, evaluate = OUTPUTS[name]
        for group in points:
            for column, cells in zip(names, evaluate(group, sweep)):
                columns[column][group.index] = cells
    if mc:
        names = [column for name in mc for column in OUTPUTS[name][0]]
        for group in points:
            for column, cells in zip(names, _mc_columns(group, sweep, mc)):
                columns[column][group.index] = cells
    return columns


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
        try:
            value = int(config.get(name, default))
        except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
            raise ConfigError(f"config {name} must be an integer") from None
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    return value


def _mc_settings(args, config: dict) -> tuple[int, int, int]:
    """Checked trials, seed and chunks of a command with Monte-Carlo flags."""
    trials = _setting(args, config, "trials", 100_000, minimum=1)
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
    constants = qam_constants(scenario.qam_order)
    sweep = _Sweep(scenario, variable, values, constants, trials, seed, chunks)
    columns = evaluate_outputs(sweep, sweep_points(scenario, variable, values), outputs)
    rows = zip(values, *(columns[name] for name in header[1:]))
    end = "\n"
    if mc_requested:
        header.append("trials")
        end = f",{trials}\n"

    out, close = _open_out(args.out)
    try:
        meta = {"config": args.config, "sweep": f"{variable}"}
        if mc_requested:
            meta["seed"] = seed
            meta["sampling"] = "per-block substreams, 65536 trials per block"
        _write_meta(out, "analyze", args, meta)
        out.write(",".join(header) + "\n")
        out.writelines(",".join(map(_fmt, row)) + end for row in rows)
    finally:
        if close:
            out.close()
    return 0


def layout_alphas(scenario: Scenario, layout: PlacementResult) -> np.ndarray:
    """The solved layout's alphas, I_p/N_0 * (d_interference_k/d_data_k)^eta.

    They come from the solved hop lengths rather than from relay
    positions, whose rounding can swallow a hop far shorter than them.
    Raises ConfigError where an alpha underflows to 0.
    """
    ratios = np.array(layout.d_interference) / np.array(layout.d_data)
    with np.errstate(over="ignore", under="ignore"):
        hop_alphas = scenario.ip_over_n0 * libm_pow(ratios, scenario.path_loss_exponent)
    if not np.all(hop_alphas > 0):
        raise ConfigError("an alpha of the balanced layout underflows to 0")
    return hop_alphas


# bench/spans.py wraps this module attribute by name: keep the name.
def with_performance(scenario: Scenario, layout: PlacementResult, constants: QamConstants):
    """(op_min, ber_min): the outage and BER asymptotes on the layout's
    alphas (layout_alphas)."""
    hop_alphas = layout_alphas(scenario, layout)
    return (
        outage_asymptotic(hop_alphas, scenario.gamma_th),
        e2e_ber_asymptotic(hop_alphas, constants),
    )


def cmd_optimize(args) -> int:
    scenario, _ = load_scenario(args.config)
    if args.grid_resolution < 1:
        raise ConfigError("grid resolution must be >= 1")
    k = scenario.hop_count
    eta = scenario.path_loss_exponent
    constants = qam_constants(scenario.qam_order)
    placement = solve_equal_ratio(k, scenario.pu_coord)
    op_min, ber_min = with_performance(scenario, placement, constants)
    balanced_obj = placement_objective(
        placement.d_data, scenario.pu_coord, eta
    )
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
    if k <= 4:
        d_search, obj_search = direct_search(
            k, scenario.pu_coord, eta, args.grid_resolution
        )
        meta["objective_direct_search"] = _fmt(obj_search)
        meta["objective_gap"] = _fmt(balanced_obj - obj_search)
        meta["direct_search_d_data"] = " ".join(_fmt(v) for v in d_search)
    else:
        meta["objective_direct_search"] = "skipped (grid search supports <= 4 hops)"

    out, close = _open_out(args.out)
    try:
        _write_meta(out, "optimize", args, meta)
        out.write("hop,d_data,d_interference,ratio\n")
        for i, (dd, di) in enumerate(
            zip(placement.d_data, placement.d_interference), start=1
        ):
            out.write(f"{i},{_fmt(dd)},{_fmt(di)},{_fmt(dd / di)}\n")
    finally:
        if close:
            out.close()
    print(
        f"optimize: K={k} ratio={placement.ratio:.6f} "
        f"residual={placement.residual_norm:.2e} "
        f"op_min={op_min:.6g} ber_min={ber_min:.6g}",
        file=sys.stderr,
    )
    return 0


def _profile_alphas(name: str, scenario: Scenario, config: dict, seed: int):
    """The alphas of profile `name` at the scenario's point.

    The optimized profile is evaluated on the balanced layout's hop
    lengths (layout_alphas), the others through relay positions.
    """
    k = scenario.hop_count
    if name == "optimized":
        return list(layout_alphas(scenario, solve_equal_ratio(k, scenario.pu_coord)))
    return _alphas(
        scenario.with_hop_distances(_profile_distances(name, scenario, config, seed))
    )


def _profile_distances(name: str, scenario: Scenario, config: dict, seed: int):
    k = scenario.hop_count
    if name == "uniform":
        return [1.0 / k] * k
    if name == "random":
        rng = np.random.default_rng(seed)
        return list(rng.dirichlet(np.ones(k)))
    for entry in config.get("profiles", []):
        if entry.get("name") == name:
            distances = [float(v) for v in entry.get("distances", [])]
            if len(distances) != k:
                raise ConfigError(
                    f"profile {name!r} has {len(distances)} distances, expected {k}"
                )
            if abs(sum(distances) - 1.0) > 1e-9:
                raise ConfigError(
                    f"profile {name!r} distances sum to {sum(distances)!r}, expected 1"
                )
            return distances
    raise ConfigError(f"unknown profile {name!r}")


def cmd_profiles(args) -> int:
    scenario, config = load_scenario(args.config)
    seed = _setting(args, config, "seed", 0, minimum=0)
    if args.profiles:
        names = [n.strip() for n in args.profiles.split(",") if n.strip()]
    elif config.get("profiles"):
        names = [entry["name"] for entry in config["profiles"]]
    else:
        names = ["uniform", "optimized"]
    if not names:
        raise ConfigError("no profiles requested")
    if args.sweep:
        variable, values = parse_sweep(args.sweep)
    else:
        variable, values = "ip_over_n0_db", [linear_to_db(scenario.ip_over_n0)]

    points = [scenario_at(scenario, variable, v) for v in values]
    cells = {}  # profile -> per point "op_exact,capacity"
    for name in names:
        rows = [_profile_alphas(name, point, config, seed) for point in points]
        cells[name] = [None] * len(values)
        for group in _group(rows):
            op = outage_exact(group.alphas, scenario.gamma_th)
            cap = ergodic_capacity_ind(group.alphas)
            for i, op_i, cap_i in zip(group.index, op, cap):
                cells[name][i] = f"{_fmt(op_i)},{_fmt(cap_i)}"

    out, close = _open_out(args.out)
    try:
        _write_meta(
            out, "profiles", args,
            {"config": args.config, "profiles": " ".join(names), "seed": seed},
        )
        out.write(f"{variable},profile,op_exact,capacity\n")
        for i, value in enumerate(values):
            for name in names:
                out.write(f"{_fmt(value)},{name},{cells[name][i]}\n")
    finally:
        if close:
            out.close()
    return 0


def cmd_mc(args) -> int:
    scenario, config = load_scenario(args.config)
    trials, seed, chunks = _mc_settings(args, config)
    estimates = monte_carlo(scenario, trials, seed, chunks)
    out, close = _open_out(args.out)
    try:
        _write_meta(
            out, "mc", args,
            {
                "config": args.config,
                "seed": seed,
                "trials": trials,
                "sampling": "per-block substreams, 65536 trials per block",
            },
        )
        out.write("metric,value,std_error,trials,seed\n")
        for name, metric in MC_OUTPUTS.items():
            est = estimates[metric]
            out.write(
                f"{name},{_fmt(est.value)},{_fmt(est.std_error)},"
                f"{est.trials},{est.seed}\n"
            )
    finally:
        if close:
            out.close()
    return 0


def _build_parser() -> _Parser:
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
    p.add_argument("--grid-resolution", type=int, default=200)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
