"""Network scenario: geometry, path loss, and per-hop channel statistics.

A scenario describes a linear secondary network on the unit segment
(source at (0,0), destination at (1,0)) sharing spectrum with a primary
receiver at an arbitrary coordinate.  Per-hop average channel powers are
either derived from single-slope path loss over that geometry or
supplied directly as overrides, which makes the analysis modules usable
without any geometric assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .errors import ConfigError

Coord = tuple[float, float]


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


def average_channel_power(distance: float, eta: float) -> float:
    """Single-slope path loss: mean channel power distance**(-eta)."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    if eta < 2:
        raise ValueError("path loss exponent must be >= 2")
    return distance ** (-eta)


@dataclass(frozen=True)
class HopStatistics:
    """Per-hop average channel powers and the derived ratio parameter.

    alpha is (lambda_d / lambda_i) * (I_p/N_0): the scale parameter of
    the per-hop SNR distribution under the interference-power cap.
    """

    lambda_d: float
    lambda_i: float
    alpha: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.lambda_d, self.lambda_i, self.alpha)):
            raise ValueError("HopStatistics fields must be positive and finite")


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one network configuration.

    ip_over_n0 and gamma_th are stored linear; dB values are converted
    at the config/CLI layer.  relay_x_positions=None means equidistant
    relays.  lambda_overrides, when given, replace the geometry-derived
    average channel powers entirely.
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
        if not isinstance(k, int) or k < 1:
            raise ConfigError("hop_count must be a positive integer")
        if self.path_loss_exponent < 2:
            raise ConfigError("path_loss_exponent must be >= 2")
        if self.ip_over_n0 <= 0:
            raise ConfigError("ip_over_n0 must be positive (linear scale)")
        if self.gamma_th < 0:
            raise ConfigError("gamma_th must be non-negative (linear scale)")
        _validate_qam_order(self.qam_order)
        if self.relay_x_positions is not None:
            xs = tuple(float(x) for x in self.relay_x_positions)
            object.__setattr__(self, "relay_x_positions", xs)
            if len(xs) != k - 1:
                raise ConfigError(f"expected {k - 1} relay positions, got {len(xs)}")
            prev = 0.0
            for x in xs:
                if not prev < x < 1.0:
                    raise ConfigError(
                        "relay positions must be strictly increasing within (0, 1)"
                    )
                prev = x
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

    def with_hop_distances(self, distances: Sequence[float]) -> "Scenario":
        """New scenario with the given hop lengths (must sum to 1)."""
        d = [float(v) for v in distances]
        if len(d) != self.hop_count:
            raise ConfigError(f"expected {self.hop_count} hop distances")
        if any(v <= 0 for v in d):
            raise ConfigError("hop distances must be positive")
        if abs(sum(d) - 1.0) > 1e-9:
            raise ConfigError(f"hop distances sum to {sum(d)!r}, expected 1")
        xs = []
        acc = 0.0
        for v in d[:-1]:
            acc += v
            xs.append(acc)
        return replace(self, relay_x_positions=tuple(xs), lambda_overrides=None)


def _validate_qam_order(m: int) -> None:
    if not isinstance(m, int) or m < 4:
        raise ConfigError("qam_order must be an integer power of 4, at least 4")
    exp = round(math.log(m, 4))
    if 4 ** exp != m:
        raise ConfigError(f"qam_order {m} is not a power of 4")


def hop_geometry(scenario: Scenario) -> list[tuple[float, float]]:
    """Per hop (d_data, d_interference) for the linear layout.

    d_data is the spacing between consecutive nodes; d_interference is
    the Euclidean distance from the hop's transmitter to the primary
    receiver.
    """
    if scenario.lambda_overrides is not None:
        raise ConfigError("scenario uses lambda overrides; it has no geometry")
    xs = scenario.node_positions
    px, py = scenario.pu_coord
    out = []
    for k in range(scenario.hop_count):
        d_data = xs[k + 1] - xs[k]
        d_interf = math.hypot(px - xs[k], py)
        out.append((d_data, d_interf))
    return out


def derive_hop_statistics(scenario: Scenario) -> list[HopStatistics]:
    """Average channel powers per hop, from overrides or path loss.

    Raises ConfigError where a hop's power or alpha is not a positive
    double: the primary receiver on a transmitter node or within about
    1e-300 of one (its power overflows), or a power or alpha that
    underflows to 0.
    """
    ip = scenario.ip_over_n0
    try:
        if scenario.lambda_overrides is not None:
            pairs = scenario.lambda_overrides
        else:
            eta = scenario.path_loss_exponent
            pairs = [
                (average_channel_power(dd, eta), average_channel_power(di, eta))
                for dd, di in hop_geometry(scenario)
            ]
        return [
            HopStatistics(lambda_d=ld, lambda_i=li, alpha=(ld / li) * ip)
            for ld, li in pairs
        ]
    except (ValueError, ArithmeticError):
        raise ConfigError(
            f"a hop's channel power or alpha is not a positive double "
            f"(primary receiver at {scenario.pu_coord}: on or too near a node, "
            "or a power or alpha out of the float64 range)"
        ) from None


def alphas(scenario: Scenario) -> list[float]:
    """Convenience: the per-hop SNR scale parameters."""
    return [h.alpha for h in derive_hop_statistics(scenario)]


def scenario_from_config(config: dict) -> Scenario:
    """Build a Scenario from a JSON-style config dict.

    Fields named *_db are accepted in decibels and converted; linear
    variants win if both are present.  Unknown keys are rejected so
    typos fail loudly.
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
        if name in config:
            return config[name]
        if f"{name}_db" in config:
            return db_to_linear(float(config[f"{name}_db"]))
        return default

    pu = config.get("pu_coord", (0.35, 0.35))
    try:
        pu = (float(pu[0]), float(pu[1]))
    except (TypeError, ValueError, IndexError):
        raise ConfigError("pu_coord must be a [x, y] pair") from None
    overrides = config.get("lambda_overrides")
    if overrides is not None:
        overrides = tuple((float(p[0]), float(p[1])) for p in overrides)
    relays = config.get("relay_x_positions")
    if relays is not None:
        relays = tuple(float(x) for x in relays)
    try:
        return Scenario(
            hop_count=int(config.get("hop_count", 3)),
            pu_coord=pu,
            path_loss_exponent=float(config.get("path_loss_exponent", 4.0)),
            ip_over_n0=float(pick("ip_over_n0", 1.0)),
            gamma_th=float(pick("gamma_th", 1.0)),
            qam_order=int(config.get("qam_order", 4)),
            relay_x_positions=relays,
            lambda_overrides=overrides,
        )
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf)
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
