"""Seeded Monte-Carlo estimators for outage, bit error rate, and capacity.

The estimators are conditional (Rao-Blackwellized; Asmussen & Glynn,
Stochastic Simulation, ch. V).  A trial draws only the interference
gains Y_k.  Given them, hop k's SNR is exponential with mean
mu_k = alpha_k / Y_k, every metric has a closed form over the data
gains, and that conditional expectation is the trial's value:

- outage: 1 - exp(-gamma_th r), with r = sum_k 1/mu_k the rate of the
  weakest hop's SNR;
- BER: each hop's AWGN BER averaged over its SNR, a sum over omega of
  phi (1 - 1/sqrt(1 + t)) with t = 1/(omega mu_k), chained by the
  odd-number-of-errors recursion, which holds because the hops are
  independent given Y;
- capacity: E[log2(1 + min hop SNR)]/K = e^r E1(r)/(K ln 2), i.e. it
  validates the weakest-hop approximation, not exact regenerative-
  relaying capacity.

Each has the raw estimator's expectation and a smaller variance, draws
half its random numbers and evaluates no erfc.

Trials are processed in fixed-size blocks of 65536; block i always draws
from the substream (seed, i) regardless of how blocks are grouped into
chunks, and block partials are merged in block order.  Estimates are
therefore bit-identical for any chunk count, which is what lets the
chunks run concurrently: with chunks > 1 they are spread over up to
os.cpu_count() threads (the calling thread is one of them), and numpy's
RNG fill, ufuncs and reductions release the GIL while they work.
monte_carlo draws each block once for every metric it is asked for,
and each metric's estimate is the one its own pass would give.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import sample_exponential, substream
# instantaneous_ber is not called here; bench/spans.py binds it by name,
# so the name stays
from .ber import instantaneous_ber, qam_constants  # noqa: F401
from .scenario import Scenario, derive_hop_statistics

BLOCK_TRIALS = 1 << 16
# Columns of a block the BER kernel works on at a time, so that its
# (K, columns) temporaries stay in cache.  Every step is element by
# element, so the width changes no bit.
_SLICE = 1 << 13

_LN2 = math.log(2.0)
_EULER_GAMMA = 0.5772156649015329
# e^x E1(x) is summed as a series below x = 2 and as a continued
# fraction from there on
_E1_SWITCH = 2.0
# (-1)^(k+1) / (k k!) for k = 1, 2, ...: the series of E1(x) + gamma + ln x
_E1_SERIES = tuple((-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 31))
# continued-fraction terms that reach double precision at the switch;
# the fraction converges faster as x grows, so they do everywhere above
_E1_FRACTION_TERMS = 51


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    trials: int
    seed: int


METRICS = ("op", "ber", "capacity")


def monte_carlo(
    scenario: Scenario,
    trials: int,
    seed: int,
    chunks: int = 1,
    metrics: Sequence[str] = METRICS,
) -> dict[str, McEstimate]:
    """Estimates of the named metrics ("op", "ber", "capacity"), keyed by
    name in the order asked, all from one pass over the same draws.

    Every estimate equals the one a call for that metric alone gives,
    bit for bit; only the named kernels run.
    """
    if not metrics or len(set(metrics)) != len(metrics) or not set(metrics) <= set(METRICS):
        raise ValueError(f"metrics must be distinct names from {METRICS}, got {metrics!r}")
    kernels = tuple(_kernel(m, scenario) for m in metrics)
    return dict(zip(metrics, _run(scenario, trials, seed, chunks, kernels)))


def mc_outage(
    scenario: Scenario, trials: int, seed: int, chunks: int = 1
) -> McEstimate:
    """Probability that the weakest hop SNR falls below gamma_th."""
    return monte_carlo(scenario, trials, seed, chunks, ("op",))["op"]


def mc_ber(
    scenario: Scenario, trials: int, seed: int, chunks: int = 1
) -> McEstimate:
    """End-to-end BER: per trial, every hop's BER averaged over its data
    gain, chained by the odd-number-of-errors recursion."""
    return monte_carlo(scenario, trials, seed, chunks, ("ber",))["ber"]


def mc_capacity(
    scenario: Scenario, trials: int, seed: int, chunks: int = 1
) -> McEstimate:
    """Average of log2(1 + min hop SNR) / K."""
    return monte_carlo(scenario, trials, seed, chunks, ("capacity",))["capacity"]


def _kernel(metric: str, scenario: Scenario):
    """The function from one block's (K, n) inverse hop-SNR means 1/mu to
    the metric's per-trial values.  It only reads them: every kernel of
    a pass gets the same array."""
    if metric == "op":
        gamma_th = scenario.gamma_th
        return lambda inv_mu: -np.expm1(-gamma_th * inv_mu.sum(axis=0))
    if metric == "capacity":
        scale = 1.0 / (scenario.hop_count * _LN2)
        return lambda inv_mu: _exp_e1(inv_mu.sum(axis=0)) * scale
    constants = qam_constants(scenario.qam_order)
    weights: dict[float, float] = {}  # omega -> the sum of its terms' phi
    for _, _, _, omega, phi in constants.terms:
        weights[omega] = weights.get(omega, 0.0) + phi
    pairs = [(1.0 / omega, phi / constants.denominator)
             for omega, phi in weights.items() if phi != 0.0]

    def ber(inv_mu: np.ndarray) -> np.ndarray:
        k, n = inv_mu.shape
        out = np.empty(n)
        t, u, s, hop = (np.empty((k, min(n, _SLICE))) for _ in range(4))
        for lo in range(0, n, _SLICE):
            cols = inv_mu[:, lo:lo + _SLICE]
            w = cols.shape[1]
            tw, uw, sw, hw = t[:, :w], u[:, :w], s[:, :w], hop[:, :w]
            hw.fill(0.0)
            for inv_omega, weight in pairs:
                # 1 - 1/sqrt(1 + t) = t / ((1 + t) + sqrt(1 + t)), which
                # does not cancel as t -> 0
                np.multiply(cols, inv_omega, out=tw)
                np.add(tw, 1.0, out=uw)
                np.sqrt(uw, out=sw)
                uw += sw
                tw /= uw
                tw *= weight
                hw += tw
            acc = out[lo:lo + w]
            acc[...] = hw[-1]
            step = tw[0]
            for row in hw[-2::-1]:
                np.multiply(row, -2.0, out=step)
                step += 1.0
                step *= acc
                np.add(row, step, out=acc)
        return out

    return ber


def _exp_e1(x: np.ndarray) -> np.ndarray:
    """e^x E1(x) for x >= 0, element by element: a series below
    _E1_SWITCH and a continued fraction from there on."""
    low = x < _E1_SWITCH
    if low.all():
        return _exp_e1_series(x)
    if not low.any():
        return _exp_e1_fraction(x)
    value = np.empty_like(x)
    value[low] = _exp_e1_series(x[low])
    value[~low] = _exp_e1_fraction(x[~low])
    return value


def _exp_e1_series(x: np.ndarray) -> np.ndarray:
    """e^x (S(x) - gamma - ln x) with S(x) = sum_k (-1)^(k+1) x^k/(k k!)
    (Abramowitz & Stegun 5.1.11), for 0 <= x < _E1_SWITCH.

    S is summed as far as its terms matter at the largest x: there the
    first term left out is below 2^-54 times a lower bound on E1
    (A&S 5.1.20), and at smaller x the terms are smaller and E1 larger.
    """
    top = float(x.max())
    tol = 2.0 ** -54 * 0.5 * math.exp(-top) * math.log1p(2.0 / max(top, 1e-300))
    m, term = 1, top
    while m < len(_E1_SERIES):
        term *= top * m / (m + 1) ** 2  # the first term left out, at top
        if term <= tol:
            break
        m += 1
    # Horner: S = x (c_1 + x (c_2 + ... + x c_m))
    acc = np.full_like(x, _E1_SERIES[m - 1])
    for c in reversed(_E1_SERIES[:m - 1]):
        acc *= x
        acc += c
    acc *= x
    acc -= _EULER_GAMMA
    acc -= np.log(x)
    acc *= np.exp(x)
    return acc


def _exp_e1_fraction(x: np.ndarray) -> np.ndarray:
    """e^x E1(x) for x >= _E1_SWITCH by the even part of the continued
    fraction A&S 5.1.22, 1/(x+1- 1/(x+3- 4/(x+5- 9/(x+7- ...)))), taken
    from its tail."""
    f = x + (2 * _E1_FRACTION_TERMS + 1)
    for m in range(_E1_FRACTION_TERMS, 0, -1):
        np.divide(-float(m * m), f, out=f)
        f += x
        f += 2 * m - 1
    return np.divide(1.0, f, out=f)


def _run(scenario, trials, seed, chunks, kernels) -> list[McEstimate]:
    """Merge every kernel's per-trial values block by block.

    Each block's interference gains are drawn once, as a (K, n) array
    with one row per hop so per-trial reductions run over contiguous
    rows, and every kernel reads their 1/mu.  Chunks are dealt
    round-robin to min(chunks with blocks, os.cpu_count()) workers: the
    calling thread, which takes chunk 0, and a pool for the rest.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    stats = derive_hop_statistics(scenario)
    k = len(stats)
    # 1/mu_k = Y_k / alpha_k = lambda_i Y_k / (I_p/N_0 lambda_d)
    alpha = np.array([h.alpha for h in stats])[:, None]

    n_blocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    per_chunk = (n_blocks + chunks - 1) // chunks
    chunk_blocks = [
        range(first, min(first + per_chunk, n_blocks))
        for first in range(0, n_blocks, per_chunk)
    ]
    workers = min(len(chunk_blocks), os.cpu_count() or 1)
    # partials[block][j]: (count, mean, M2) of kernel j over the block
    partials: list[list[tuple[int, float, float]]] = [None] * n_blocks  # type: ignore

    def block_moments(block: int) -> list[tuple[int, float, float]]:
        n = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
        inv_mu = sample_exponential(substream(seed, block), 1.0, (k, n))
        np.maximum(inv_mu, 1e-300, out=inv_mu)
        inv_mu /= alpha
        return [_moments(kernel(inv_mu)) for kernel in kernels]

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

    # zip(*partials): each kernel's block partials, in block order
    return [_estimate(column, trials, seed) for column in zip(*partials)]


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, M2) of one block: two passes over the values less
    the first one, so a constant block has M2 exactly 0."""
    first = values[0]
    dev = values - first
    shift = dev.sum() / dev.size
    dev -= shift
    return dev.size, float(first + shift), float((dev * dev).sum())


def _estimate(partials, trials: int, seed: int) -> McEstimate:
    """Mean and standard error from per-block (count, mean, M2), merged
    pairwise in block order (Chan, Golub & LeVeque 1983)."""
    count, mean, m2 = 0, 0.0, 0.0
    for n, block_mean, block_m2 in partials:  # fixed block order
        total = count + n
        delta = block_mean - mean
        mean += delta * (n / total)
        m2 += block_m2 + delta * delta * (count * n / total)
        count = total
    var = m2 / (trials - 1) if trials > 1 else 0.0
    return McEstimate(
        value=mean,
        std_error=math.sqrt(var / trials),
        trials=trials,
        seed=seed,
    )
