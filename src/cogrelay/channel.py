"""Per-hop SNR law under the interference-power cap.

With the transmitter always using the largest power the primary
receiver tolerates, the hop SNR is gamma = (I_p/N_0) * X/Y with X, Y
independent exponentials, giving the heavy-tailed density
alpha/(gamma+alpha)^2.  The distribution has no finite mean.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent PCG64 generator for stream `index` of a seeded run.

    The (seed, index) pair is mixed through numpy's SeedSequence
    entropy/spawn-key hash, so any two indices give statistically
    independent streams and the mapping is stable across processes.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def sample_exponential(rng: np.random.Generator, size, out=None):
    """Inverse-CDF unit-mean exponential draws -ln(U), U uniform on (0, 1].

    Computed in place in the buffer of uniforms: out, a C-contiguous
    float array of shape size, if given.
    """
    u = rng.random(size, out=out)
    # rng.random() is uniform on [0, 1); 1-u is uniform on (0, 1].
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    return u
