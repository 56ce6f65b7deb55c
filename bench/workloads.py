"""The four benchmark workloads, generated from the workload seed.

Each workload is a list of CLI invocations.  An invocation carries the
argv passed to ``cogrelay.cli.main`` (without ``--config``, which
run.py adds after writing ``config`` to a file), the number of CSV
rows it must print and the sweep values it covers, so the checker can
rebuild every scenario without asking the program, and under "check"
how many evenly spaced rows the checker compares with references.

The seed draws the inputs: Monte-Carlo seeds, the PU positions of
layout_sweep's optimize calls and the sub-step offset of snr_sweep's
grid.  It never changes how many points or trials a workload computes.
Where the cost of a point depends on where it lies (Newton iterations
on layout_sweep's profile sweeps, the mpmath fallback on deep_chain),
the points are fixed, so the seed cannot move the work of a pass.
"""

from __future__ import annotations

import random

WORKLOADS = ("snr_sweep", "layout_sweep", "mc_verify", "deep_chain")

CLOSED_FORM_OUTPUTS = (
    "op_exact,op_asymptotic,ber_exact,ber_asymptotic,capacity,per_hop_capacity_min"
)
MC_ANALYZE_OUTPUTS = "op_exact,ber_exact,capacity,mc_op,mc_ber,mc_capacity"
DEEP_OUTPUTS = "op_exact,ber_exact,capacity,per_hop_capacity_min"

# Rare-outage point of mc_verify: K=3 at 40 dB has OP near 1.3e-4.
RARE_DB = 40.0
# Workers a child may use: --chunks never asks for more than the 2 cores
# the benchmark was sized on.
CHUNKS = 2


def _grid(start: float, step: float, count: int) -> tuple[str, list[float]]:
    """START:STOP:STEP text whose inclusive range has exactly `count` values.

    STOP sits a quarter step past the last value, so the CLI's rounding
    of (STOP-START)/STEP can neither add nor drop a point.
    """
    stop = start + (count - 0.75) * step
    values = [start + i * step for i in range(count)]
    return f"{start!r}:{stop!r}:{step!r}", values


def _snr_sweep(rng: random.Random, tiny: bool) -> list[dict]:
    # Sweeping I_p/N_0 keeps the pole pattern fixed up to scale, so this
    # is where a one-pass sweep engine and BER/outage kernel work show.
    # It runs no Monte Carlo and no placement.
    step = 10.0 if tiny else 0.1
    count = 33 if tiny else 3300
    grid, values = _grid(-30.0 + rng.uniform(0.0, step), step, count)
    return [{
        "id": "snr",
        "argv": ["analyze", "--sweep", f"ip_over_n0_db={grid}",
                 "--outputs", CLOSED_FORM_OUTPUTS],
        "config": {"hop_count": 3, "qam_order": 16},
        "sweep": {"variable": "ip_over_n0_db", "values": values},
        "rows": count,
        "check": {"rows": 34, "capacity_rows": 6},
    }]


def _layout_sweep(rng: random.Random, tiny: bool) -> list[dict]:
    # The poles change at every PU position, so sweep-level reuse is
    # bypassed and the Newton placement solver dominates.  Three PU
    # heights mix near and far receivers; x runs from behind the source
    # to past the destination (on and off the span).  The sweeps are
    # fixed: Newton's iteration count depends on the PU position, and
    # seeded positions moved a pass's iterations by up to 8%.  The seed
    # draws only the optimize positions, a small share of the pass.
    heights = (0.15,) if tiny else (0.15, 0.425, 0.9)
    step = 0.5 if tiny else 0.03
    count = 6 if tiny else 100
    grid, values = _grid(-1.0 + step / 2, step, count)
    invocations = []
    for i, py in enumerate(heights):
        for k in (4, 8):
            invocations.append({
                "id": f"profiles_k{k}_y{i}",
                "argv": ["profiles", "--profiles", "uniform,optimized",
                         "--sweep", f"pu_x={grid}"],
                "config": {"hop_count": k, "pu_coord": [0.5, py]},
                "sweep": {"variable": "pu_x", "values": values},
                "rows": 2 * count,
                "check": {"rows": 2, "capacity_rows": 1},
            })
    for i, py in enumerate(heights):
        invocations.append({
            "id": f"optimize_{i}",
            "argv": ["optimize"],
            "config": {"hop_count": 3, "pu_coord": [rng.uniform(-1.0, 2.0), py]},
            "rows": 3,
        })
    return invocations


def _mc_verify(rng: random.Random, tiny: bool) -> list[dict]:
    # Sampling, the erfc kernel and the MC reductions; --chunks 2 is
    # serial today, so real block parallelism would show here.  The
    # analyze list ends at the rare-outage point.
    mc_trials = 65_536 if tiny else 1_000_000
    analyze_trials = 131_072 if tiny else 500_000
    config = {"hop_count": 3, "qam_order": 16, "ip_over_n0_db": 15.0}
    return [
        {
            "id": "mc",
            "argv": ["mc", "--trials", str(mc_trials),
                     "--seed", str(rng.getrandbits(31)), "--chunks", str(CHUNKS)],
            "config": config,
            "rows": 3,
        },
        {
            "id": "mc_analyze",
            "argv": ["analyze", "--sweep", f"ip_over_n0_db=10:{RARE_DB:g}:15",
                     "--outputs", MC_ANALYZE_OUTPUTS,
                     "--trials", str(analyze_trials),
                     "--seed", str(rng.getrandbits(31)), "--chunks", str(CHUNKS)],
            "config": {"hop_count": 3, "qam_order": 16},
            "sweep": {"variable": "ip_over_n0_db", "values": [10.0, 25.0, RARE_DB]},
            "rows": 3,
        },
    ]


def _deep_chain(rng: random.Random, tiny: bool) -> list[dict]:
    # The only workload that reaches capacity's mpmath fallback (K >= 16).
    # The points are fixed: moving the SNR by 0.5 dB swings the fallback
    # cost by about 20%, which would drown any change in spread.
    del rng
    step = 21 if tiny else 1
    ks = list(range(1, 65, step))
    return [
        {
            "id": f"deep_{db}dB",
            "argv": ["analyze", "--sweep", f"hop_count=1:64:{step}",
                     "--outputs", DEEP_OUTPUTS],
            "config": {"hop_count": 3, "ip_over_n0_db": float(db)},
            "sweep": {"variable": "hop_count", "values": ks},
            "rows": len(ks),
            "check": {"rows": 13, "capacity_rows": 2 if tiny else 4},
        }
        for db in (0, 15, 30)
    ]


_BUILDERS = {
    "snr_sweep": _snr_sweep,
    "layout_sweep": _layout_sweep,
    "mc_verify": _mc_verify,
    "deep_chain": _deep_chain,
}


def build(name: str, seed: int, tiny: bool = False) -> list[dict]:
    """Invocations of workload `name` for `seed`; same seed, same inputs."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), tiny)
