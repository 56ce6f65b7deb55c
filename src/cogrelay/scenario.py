"""Network scenario: geometry, path loss, and per-hop SNR scales.

A scenario describes a linear secondary network on the unit segment
(source at (0,0), destination at (1,0)) sharing spectrum with a primary
receiver at an arbitrary coordinate.  Every result depends on a hop only
through alpha = I_p/N_0 * (d_i/d)^eta (hop_alphas), from single-slope
path loss over that geometry, or alpha = (lambda_d/lambda_i) * I_p/N_0
from per-hop channel powers supplied as overrides, which makes the
analysis modules usable without any geometric assumptions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .numerics import libm, libm_pow

Coord = tuple[float, float]

# Caps on the counts that size the work.  A 4096-hop point takes 0.04 s
# (a hop_count=1:4096:1 sweep about a minute); 4^10-QAM has 9,217
# coefficient terms, and each power of 4 doubles them and the BER's cost.
MAX_HOPS = 4096
MAX_QAM_ORDER = 4**10


def db_to_linear(value_db: float) -> float:
    if not math.isfinite(value_db):
        raise ConfigError(f"{value_db:g} dB is not a finite level")
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ConfigError(f"{value_db:g} dB is beyond the float64 range") from None


def linear_to_db(value: float) -> float:
    if value <= 0:
        raise ValueError("dB conversion requires a positive value")
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one network configuration.

    ip_over_n0 and gamma_th are stored linear; dB values are converted
    at the config/CLI layer.  relay_x_positions=None means equidistant
    relays.  lambda_overrides, when given, replace the geometry entirely:
    each hop's (lambda_d, lambda_i) average channel powers.
    """

    hop_count: int
    pu_coord: Coord = (0.35, 0.35)
    path_loss_exponent: float = 4.0
    ip_over_n0: float = 1.0
    gamma_th: float = 1.0
    qam_order: int = 4
    relay_x_positions: Optional[tuple[float, ...]] = None
    lambda_overrides: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        k = self.hop_count
        if not isinstance(k, int) or not 1 <= k <= MAX_HOPS:
            raise ConfigError(f"hop_count must be an integer from 1 to {MAX_HOPS}, got {k!r}")
        if self.path_loss_exponent < 2:
            raise ConfigError("path_loss_exponent must be >= 2")
        if self.ip_over_n0 <= 0:
            raise ConfigError("ip_over_n0 must be positive (linear scale)")
        if self.gamma_th < 0:
            raise ConfigError("gamma_th must be non-negative (linear scale)")
        m = self.qam_order
        if (not isinstance(m, int) or not 4 <= m <= MAX_QAM_ORDER
                or 4 ** round(math.log(m, 4)) != m):
            raise ConfigError(
                f"qam_order must be an integer power of 4 from 4 to 4**10, got {m!r}")
        if self.relay_x_positions is not None:
            xs = tuple(float(x) for x in self.relay_x_positions)
            object.__setattr__(self, "relay_x_positions", xs)
            if len(xs) != k - 1:
                raise ConfigError(f"expected {k - 1} relay positions, got {len(xs)}")
            if not all(a < b for a, b in zip((0.0,) + xs, xs + (1.0,))):
                raise ConfigError("relay positions must be strictly increasing within (0, 1)")
        if self.lambda_overrides is not None:
            ov = tuple((float(d), float(i)) for d, i in self.lambda_overrides)
            object.__setattr__(self, "lambda_overrides", ov)
            if len(ov) != k:
                raise ConfigError(f"expected {k} lambda override pairs, got {len(ov)}")
            if any(d <= 0 or i <= 0 for d, i in ov):
                raise ConfigError("lambda overrides must be positive")
        # NaN passes every comparison above, and infinities some of them
        for name, values in (
            ("pu_coord", self.pu_coord),
            ("path_loss_exponent", (self.path_loss_exponent,)),
            ("ip_over_n0", (self.ip_over_n0,)),
            ("gamma_th", (self.gamma_th,)),
            ("lambda_overrides", [v for pair in self.lambda_overrides or () for v in pair]),
        ):
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{name} must be finite")

    @property
    def node_positions(self) -> tuple[float, ...]:
        """x-coordinates of all K+1 nodes (source, relays, destination)."""
        k = self.hop_count
        if self.relay_x_positions is not None:
            return (0.0,) + self.relay_x_positions + (1.0,)
        return tuple(i / k for i in range(k + 1))


def hop_alphas(ip_over_n0, eta, pu_x, pu_y, x, d) -> np.ndarray:
    """Per-hop alpha = I_p/N_0 * (d_i/d)^eta, element by element over the
    broadcast arguments: d is the hop's length and d_i = hypot(pu_x - x,
    pu_y) the distance from its transmitter at x to the primary receiver.
    Hops lie along the last axis; a sweep passes its swept value as a
    (P, 1) column.

    Each element is ip_over_n0 * math.pow(math.hypot(pu_x - x, pu_y) / d,
    eta), bit for bit.  The ratio takes no power of a hop length alone,
    which overflows for the 1e-300-long hops of a balanced layout with
    the receiver next to the line.  Raises ConfigError unless every
    alpha is a finite double no smaller than the smallest normal,
    2^-1022: below it 1/alpha, which the closed forms and Monte Carlo
    divide by, is inf or has lost digits.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            d_i = libm(math.hypot, np.subtract(pu_x, x), pu_y)
        except OverflowError:  # a distance beyond the double range: alpha is inf
            d_i = math.inf
        return _normal(np.multiply(ip_over_n0, libm_pow(np.divide(d_i, d), eta)))


def _normal(alphas: np.ndarray) -> np.ndarray:
    normal = (alphas >= sys.float_info.min) & (alphas < math.inf)  # NaN fails both
    if not normal.all():
        raise ConfigError(
            f"a hop's alpha is {float(alphas[~normal].flat[0])!r}, not a finite double "
            ">= 2^-1022: the primary receiver is on, too near or too far from a "
            "transmitter, or I_p/N_0 or a lambda override is out of range"
        )
    return alphas


def derive_hop_statistics(scenario: Scenario, hop_lengths=None, hop_counts=None,
                          **columns) -> np.ndarray:
    """The scenario's per-hop alphas (hop_alphas): (K,), or the broadcast
    shape of the arguments.

    hop_lengths (..., K) replace the relay positions; their transmitters
    sit at 0 and at the running sums of the hops before, added as
    placement.interference_distances adds them.  hop_counts (P,) replace
    the hop count: point p is a chain of hop_counts[p] hops, equidistant
    unless hop_lengths (P, max K) give them, and the (P, max K) result
    holds +inf past each chain's own hops, which every closed form takes
    as no hop; hop lengths there are never read.  columns replace the
    scenario's ip_over_n0, eta, pu_x or pu_y, e.g. with a sweep's (P, 1)
    column.  lambda_overrides give alpha = (lambda_d/lambda_i) * I_p/N_0
    under the same rule; they fix every alpha/(I_p/N_0), so only
    ip_over_n0 may vary with them.
    """
    px, py = scenario.pu_coord
    params = {"ip_over_n0": scenario.ip_over_n0, "eta": scenario.path_loss_exponent,
              "pu_x": px, "pu_y": py, **columns}
    if scenario.lambda_overrides is not None:
        if hop_lengths is not None or hop_counts is not None or set(columns) - {"ip_over_n0"}:
            raise ConfigError("lambda_overrides fix each hop's alpha/(I_p/N_0); no geometry applies")
        ratios = np.array([d / i for d, i in scenario.lambda_overrides])
        with np.errstate(over="ignore"):
            return _normal(ratios * params["ip_over_n0"])
    if hop_lengths is not None:
        d = np.asarray(hop_lengths, dtype=float)
        x = np.zeros_like(d)
        np.cumsum(d[..., :-1], axis=-1, out=x[..., 1:])
    elif hop_counts is not None:
        # node i of a K-hop chain at i/K, as Scenario.node_positions places it
        nodes = np.arange(np.max(hop_counts) + 1) / np.asarray(hop_counts)[:, None]
        x, d = nodes[:, :-1], np.diff(nodes)
    else:
        xs = np.array(scenario.node_positions)
        x, d = xs[:-1], np.diff(xs)
    if hop_counts is None:
        return hop_alphas(**params, x=x, d=d)
    hops = np.arange(d.shape[-1]) < np.asarray(hop_counts)[:, None]
    alphas = np.full(hops.shape, math.inf)
    alphas[hops] = hop_alphas(**{
        k: v if np.ndim(v) == 0 else np.broadcast_to(v, hops.shape)[hops]
        for k, v in {**params, "x": x, "d": d}.items()})
    return alphas


def scenario_from_config(config: dict) -> Scenario:
    """Build a Scenario from a JSON-style config dict.

    Fields named *_db are accepted in decibels and converted; a field
    given both ways is refused, as are unknown keys, so typos fail loudly.
    Each value is converted once, here, under its key's rule (read_count,
    read_real), and a value that breaks the rule raises a ConfigError
    naming its key.
    """
    known = {
        "hop_count", "pu_coord", "path_loss_exponent",
        "ip_over_n0", "ip_over_n0_db", "gamma_th", "gamma_th_db",
        "qam_order", "relay_x_positions", "lambda_overrides",
        "profiles", "trials", "seed", "chunks",
    }
    extra = set(config) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")

    def pick(name: str, default):
        if name in config and f"{name}_db" in config:
            raise ConfigError(f"give {name} or {name}_db, not both")
        if f"{name}_db" in config:
            return db_to_linear(read_real(config[f"{name}_db"], f"{name}_db"))
        return read_real(config.get(name, default), name)

    relays = config.get("relay_x_positions")
    overrides = config.get("lambda_overrides")
    return Scenario(
        hop_count=read_count(config.get("hop_count", 3), "hop_count"),
        pu_coord=read_reals(config.get("pu_coord", [0.35, 0.35]), "pu_coord", 2),
        path_loss_exponent=read_real(config.get("path_loss_exponent", 4.0),
                                     "path_loss_exponent"),
        ip_over_n0=pick("ip_over_n0", 1.0),
        gamma_th=pick("gamma_th", 1.0),
        qam_order=read_count(config.get("qam_order", 4), "qam_order"),
        relay_x_positions=None if relays is None else read_reals(relays, "relay_x_positions"),
        lambda_overrides=None if overrides is None else tuple(
            read_reals(pair, "lambda_overrides", 2)
            for pair in _read_list(overrides, "lambda_overrides")),
    )


def read_count(value, name: str) -> int:
    """value as the count `name`: 3 and 3.0 pass; 3.7, true and "3" do not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def read_real(value, name: str) -> float:
    """value as the real number `name`: 4 and 4.0 pass; "4", true and
    integers beyond the double range do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} has a value beyond the float64 range") from None


def _read_list(value, name: str, length: Optional[int] = None) -> list:
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        shape = "a list" if length is None else f"a list of {length} values"
        raise ConfigError(f"{name} must be {shape}, got {value!r}")
    return value


def read_reals(value, name: str, length: Optional[int] = None) -> tuple[float, ...]:
    """value as a list of real numbers `name` (read_real), of the given
    length if any."""
    return tuple(read_real(v, name) for v in _read_list(value, name, length))
