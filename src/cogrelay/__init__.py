"""Performance analysis and relay placement for underlay cognitive
multi-hop decode-and-forward relay networks over Rayleigh fading.

Closed-form outage probability, square M-QAM bit error rate, and
ergodic capacity of the weakest-hop approximation, their high-SNR
asymptotes, seeded Monte-Carlo verification, and relay position
optimization on a linear network.
"""

__version__ = "0.1.0"

from .ber import (
    QamConstants,
    e2e_ber,
    e2e_ber_asymptotic,
    hop_ber,
    instantaneous_ber,
    qam_constants,
)
from .capacity import (
    PartialFractionExpansion,
    capacity_pole_integral,
    ergodic_capacity_ind,
    partial_fraction_expand,
    per_hop_capacity,
)
from .channel import substream
from .errors import ConfigError, ConvergenceError, NumericError
from .montecarlo import McEstimate, mc_ber, mc_capacity, mc_outage, monte_carlo
from .outage import outage_asymptotic, outage_exact
from .placement import (
    PlacementResult,
    direct_search,
    placement_objective,
    solve_equal_ratio,
)
from .scenario import (
    HopStatistics,
    Scenario,
    alphas,
    average_channel_power,
    db_to_linear,
    derive_hop_statistics,
    hop_geometry,
    linear_to_db,
    scenario_from_config,
)

__all__ = [
    "__version__",
    "ConfigError", "ConvergenceError", "NumericError",
    "Scenario", "HopStatistics", "scenario_from_config",
    "average_channel_power", "hop_geometry", "derive_hop_statistics",
    "alphas", "db_to_linear", "linear_to_db",
    "substream",
    "outage_exact", "outage_asymptotic",
    "QamConstants", "qam_constants", "instantaneous_ber", "hop_ber",
    "e2e_ber", "e2e_ber_asymptotic",
    "PartialFractionExpansion", "partial_fraction_expand",
    "capacity_pole_integral", "ergodic_capacity_ind", "per_hop_capacity",
    "PlacementResult", "solve_equal_ratio", "direct_search",
    "placement_objective",
    "McEstimate", "monte_carlo", "mc_outage", "mc_ber", "mc_capacity",
]
