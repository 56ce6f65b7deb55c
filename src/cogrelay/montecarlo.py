"""Seeded Monte-Carlo estimators for outage, bit error rate, and capacity.

Trials are processed in fixed-size blocks of 65536; block i always draws
from the substream (seed, i) regardless of how blocks are grouped into
chunks, and block partials are reduced in block order.  Estimates are
therefore bit-identical for any chunk count, which is what lets the
chunks run concurrently: with chunks > 1 they are spread over up to
os.cpu_count() threads (the calling thread is one of them), and numpy's
RNG fill, ufuncs and reductions release the GIL while they work.

The BER estimator is semi-analytic: it averages the instantaneous AWGN
BER over channel draws rather than simulating bits, which is the same
expectation with strictly less variance.  The capacity estimator
averages log2(1 + min hop SNR)/K, i.e. it validates the weakest-hop
approximation, not exact regenerative-relaying capacity.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ber import instantaneous_ber, qam_constants
from .channel import sample_exponential, substream
from .scenario import Scenario, derive_hop_statistics

BLOCK_TRIALS = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    trials: int
    seed: int


def mc_outage(
    scenario: Scenario, trials: int, seed: int, chunks: int = 1
) -> McEstimate:
    """Fraction of trials whose weakest hop SNR falls below gamma_th."""
    gamma_th = scenario.gamma_th

    def kernel(snr: np.ndarray) -> np.ndarray:
        return (snr.min(axis=0) < gamma_th).astype(float)

    return _run(scenario, trials, seed, chunks, kernel)


def mc_ber(
    scenario: Scenario, trials: int, seed: int, chunks: int = 1
) -> McEstimate:
    """Semi-analytic end-to-end BER estimate.

    Per trial: instantaneous BER of every hop from its SNR draw, chained
    by the odd-number-of-errors recursion, then averaged.
    """
    constants = qam_constants(scenario.qam_order)

    def kernel(snr: np.ndarray) -> np.ndarray:
        hop = instantaneous_ber(snr, constants)
        acc = np.zeros(snr.shape[1])
        for row in hop[::-1]:
            acc = row + (1.0 - 2.0 * row) * acc
        return acc

    return _run(scenario, trials, seed, chunks, kernel)


def mc_capacity(
    scenario: Scenario, trials: int, seed: int, chunks: int = 1
) -> McEstimate:
    """Average of log2(1 + min hop SNR) / K."""
    k = scenario.hop_count

    def kernel(snr: np.ndarray) -> np.ndarray:
        return np.log2(1.0 + snr.min(axis=0)) / k

    return _run(scenario, trials, seed, chunks, kernel)


def _run(scenario, trials, seed, chunks, kernel) -> McEstimate:
    """Sum the kernel's per-trial values block by block.

    The kernel gets one block's SNRs as a (K, n) array, one row per hop,
    so per-trial reductions run over contiguous rows.  Chunks are dealt
    round-robin to min(chunks with blocks, os.cpu_count()) workers: the
    calling thread, which takes chunk 0, and a pool for the rest.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    stats = derive_hop_statistics(scenario)
    k = len(stats)
    lam_d = np.array([h.lambda_d for h in stats])[:, None]
    lam_i = np.array([h.lambda_i for h in stats])[:, None]
    ip = scenario.ip_over_n0

    n_blocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    per_chunk = (n_blocks + chunks - 1) // chunks
    chunk_blocks = [
        range(first, min(first + per_chunk, n_blocks))
        for first in range(0, n_blocks, per_chunk)
    ]
    workers = min(len(chunk_blocks), os.cpu_count() or 1)
    partials: list[tuple[float, float]] = [None] * n_blocks  # type: ignore

    def block_moments(block: int) -> tuple[float, float]:
        n = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
        # one call draws both (n, K) exponential sets in the order two
        # calls would; every step below keeps ip * x / y's rounding
        draws = sample_exponential(substream(seed, block), 1.0, (2, n, k))
        snr = np.multiply(draws[0].T, lam_d, out=np.empty((k, n)))
        snr *= ip
        # y overwrites the x draws, which snr no longer needs
        y = np.multiply(draws[1].T, lam_i, out=draws[0].reshape(k, n))
        np.maximum(y, 1e-300, out=y)
        snr /= y
        del draws, y
        values = kernel(snr)
        return float(values.sum()), float((values * values).sum())

    def run_chunks(worker: int) -> None:
        for blocks in chunk_blocks[worker::workers]:
            for block in blocks:
                partials[block] = block_moments(block)

    if workers == 1:
        run_chunks(0)
    else:
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            others = [pool.submit(run_chunks, w) for w in range(1, workers)]
            run_chunks(0)
            for future in others:
                future.result()  # re-raises a worker's exception here

    total = 0.0
    total_sq = 0.0
    for s, sq in partials:  # fixed block order: reduction order never varies
        total += s
        total_sq += sq
    mean = total / trials
    if trials > 1:
        var = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
    else:
        var = 0.0
    return McEstimate(
        value=mean,
        std_error=math.sqrt(var / trials),
        trials=trials,
        seed=seed,
    )
