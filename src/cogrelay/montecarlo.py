"""Seeded Monte-Carlo estimators for outage, bit error rate, and capacity.

The estimators are conditional (Rao-Blackwellized; Asmussen & Glynn,
Stochastic Simulation, ch. V).  A trial draws only the interference
gains Y_k.  Given them, hop k's SNR is exponential with mean
mu_k = alpha_k / Y_k, every metric has a closed form over the data
gains, and that conditional expectation is the trial's value:

- outage: 1 - exp(-gamma_th r), with r = sum_k 1/mu_k the rate of the
  weakest hop's SNR;
- BER: each hop's AWGN BER averaged over its SNR, a sum over omega of
  phi (1 - 1/sqrt(1 + t)) with t = 1/(omega mu_k), evaluated as
  (1/mu_k) sum (phi/omega)/((1 + t) + sqrt(1 + t)), and chained by the
  odd-number-of-errors recursion, which holds because the hops are
  independent given Y;
- capacity: E[log2(1 + min hop SNR)]/K = e^r E1(r)/(K ln 2), i.e. it
  validates the weakest-hop approximation, not exact regenerative-
  relaying capacity.

Each has the raw estimator's expectation and a smaller variance, draws
half its random numbers and evaluates no erfc.

monte_carlo simulates a block of points at once, the way the closed
forms take a block of alphas.  Trials are processed in fixed-size
blocks of 65536; block i always draws from the substream (seed, i),
once per call, as a (K, n) array with K the longest chain, and every
point reads its own first rows (a (K, n) draw is the first K rows of a
longer one) and runs every named metric on them.  A block yields each
point's and metric's (mean, M2), and the calling thread merges the
blocks into running sums in block order, so the estimates are
bit-identical for any chunk count and for any block of points.  With
chunks > 1 the blocks run on up to min(chunks, blocks, os.cpu_count())
pool threads, at most two per thread submitted ahead of the merge;
numpy's RNG fill, ufuncs and reductions release the GIL while they
work.  The caller makes one workspace per thread, and a block draws
into and computes in whichever one is free, so no block allocates a
float array of a block's size.

Within a block, 1/mu and the BER kernel go a slice of columns at a
time, max(_SLICE, _SLICE_FLOATS // K) wide (16,384 at K = 3), so that
the four (K, w) slice arrays stay in a 2 MB L2 cache.  The width also
sets the numpy calls a block takes (about 160 for one point at K = 3,
16-QAM), and with two workers each call costs about 3 us more CPU, in
taking and handing back the GIL; the BER kernel takes 5 or 6 calls per
distinct omega and 2 per hop.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .channel import sample_exponential, substream
# instantaneous_ber is not called here; bench/spans.py binds it by name,
# so the name stays
from .ber import QamConstants, instantaneous_ber, qam_constants  # noqa: F401
from .scenario import Scenario, derive_hop_statistics

BLOCK_TRIALS = 1 << 16
# Columns of a block that 1/mu is formed and the BER kernel works on at
# a time: _SLICE_FLOATS floats per (K, columns) slice array, so that the
# four of them stay in cache, but at least _SLICE columns, so that a
# block takes few numpy calls.  Every step is element by element, so the
# width changes no bit.
_SLICE = 1 << 13
_SLICE_FLOATS = 3 << 14
# a bound on every exponential draw: rng.random() is at most 1 - 2^-53,
# so -log1p(-u) is at most 53 ln 2 = 36.74
_DRAW_MAX = 37.0

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
    alphas: np.ndarray,
    hop_counts: Sequence[int],
    gamma_th: float,
    constants: QamConstants,
    trials: int,
    seed: int,
    chunks: int = 1,
    metrics: Sequence[str] = METRICS,
) -> dict[str, list[McEstimate]]:
    """Estimates of the named metrics ("op", "ber", "capacity") at every
    point of a block, keyed by name in the order asked: one per point.

    Row i of the (P, K) alphas holds a chain of hop_counts[i] hops; the
    cells past them are not read.  constants are the QAM constants of
    the BER.  Every estimate equals the one a call for that point and
    metric alone gives, bit for bit; only the named kernels run.
    """
    if not metrics or len(set(metrics)) != len(metrics) or not set(metrics) <= set(METRICS):
        raise ValueError(f"metrics must be distinct names from {METRICS}, got {metrics!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    ber = _ber_terms(constants) if "ber" in metrics else None
    counts = [int(k) for k in hop_counts]
    k = max(counts)
    n_blocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    workers = min(chunks, n_blocks, os.cpu_count() or 1)
    # a block takes one and gives it back: at most `workers` run at once
    spaces = [_Workspace(k, min(trials, BLOCK_TRIALS)) for _ in range(workers)]
    partials_shape = (len(counts), len(metrics))

    def run_block(block: int) -> tuple[int, np.ndarray]:
        """n and the (point, metric) (mean, M2) of one block."""
        n = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
        partials = np.empty((*partials_shape, 2))
        space = spaces.pop()
        try:
            y = sample_exponential(substream(seed, block), (k, n),
                                   space.draws[:k * n].reshape(k, n))
            np.maximum(y, 1e-300, out=y)
            # near the smallest normal alpha, 1/mu and the kernels' sums
            # overflow to inf, where every kernel takes its limit
            with np.errstate(over="ignore"):
                for i, k_i in enumerate(counts):
                    for metric, v in _values(y[:k_i], alphas[i, :k_i, None], metrics,
                                             gamma_th, ber, space):
                        partials[i, metrics.index(metric)] = _moments(v)
        finally:
            spaces.append(space)
        return n, partials

    pool = nullcontext()
    if workers > 1:  # only then is the pool's module imported
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=workers)
    with pool:
        blocks = (map(run_block, range(n_blocks)) if workers == 1
                  else _in_order(pool, run_block, n_blocks, 2 * workers))
        # Chan, Golub & LeVeque's pairwise merge, a block at a time in
        # block order: a scalar merge's float operations, element by
        # element (every point has the same count, so n/total is a float)
        count, mean, m2 = 0, np.zeros(partials_shape), np.zeros(partials_shape)
        for n, partials in blocks:
            total = count + n
            delta = partials[..., 0] - mean
            mean += delta * (n / total)
            m2 += partials[..., 1] + delta * delta * (count * n / total)
            count = total
    var = (m2 / (trials - 1) if trials > 1 else np.zeros_like(m2)).tolist()
    return {metric: [McEstimate(value=point_mean[m], std_error=math.sqrt(point_var[m] / trials),
                                trials=trials, seed=seed)
                     for point_mean, point_var in zip(mean.tolist(), var)]
            for m, metric in enumerate(metrics)}


def _in_order(pool, fn, n: int, ahead: int) -> Iterator:
    """fn(0), ..., fn(n - 1) run on the pool, yielded in order, with at
    most `ahead` of them submitted and not yet taken."""
    pending: deque = deque()
    for i in range(n):
        pending.append(pool.submit(fn, i))
        if len(pending) == ahead:
            yield pending.popleft().result()  # re-raises a worker's exception here
    while pending:
        yield pending.popleft().result()


def _at_scenario(scenario: Scenario, trials: int, seed: int, chunks: int, metric: str):
    """The estimate of one metric at the scenario's point."""
    alphas = derive_hop_statistics(scenario)[None]
    estimates = monte_carlo(alphas, [scenario.hop_count], scenario.gamma_th,
                            qam_constants(scenario.qam_order), trials, seed, chunks, (metric,))
    return estimates[metric][0]


def mc_outage(
    scenario: Scenario, trials: int, seed: int, chunks: int = 1
) -> McEstimate:
    """Probability that the weakest hop SNR falls below gamma_th."""
    return _at_scenario(scenario, trials, seed, chunks, "op")


def mc_ber(
    scenario: Scenario, trials: int, seed: int, chunks: int = 1
) -> McEstimate:
    """End-to-end BER: per trial, every hop's BER averaged over its data
    gain, chained by the odd-number-of-errors recursion."""
    return _at_scenario(scenario, trials, seed, chunks, "ber")


def mc_capacity(
    scenario: Scenario, trials: int, seed: int, chunks: int = 1
) -> McEstimate:
    """Average of log2(1 + min hop SNR) / K."""
    return _at_scenario(scenario, trials, seed, chunks, "capacity")


class _Workspace:
    """The arrays one worker computes a block in, for every block of a
    call: a block's draws, four (K, w) slice arrays (one slice of a
    point's 1/mu and the BER kernel's u, s and hop; s is also _exp_e1's
    scratch), Sigma_k 1/mu_k, one metric's values and _exp_e1's mask.

    The slice width w is max(_SLICE, _SLICE_FLOATS // K) columns, at
    most n."""

    def __init__(self, k: int, n: int):
        self.draws = np.empty(k * n)  # contiguous as (K, n) for every n
        w = min(n, max(_SLICE, _SLICE_FLOATS // k))
        self.cols, self.u, self.s, self.hop = (np.empty((k, w)) for _ in range(4))
        self.rate, self.values = np.empty(n), np.empty(n)
        self.low = np.empty(n, dtype=bool)


def _values(y, alpha, metrics, gamma_th, ber, space, top=_DRAW_MAX) -> Iterator:
    """(metric, per-trial values) of each named metric at one point: BER,
    then outage, then capacity.

    y is the point's (K, n) interference gains, every one at most top,
    and alpha its (K, 1) hop alphas.  1/mu = y/alpha is formed one slice
    of columns at a time, and outage and capacity share its column sums.
    Every metric's values are the same array of space: take them before
    asking for the next metric.
    """
    k, n = y.shape
    rate, values = space.rate[:n], space.values[:n]
    if ber is not None:
        pairs, cap = ber
        # 1/mu reaches the cap only where top/alpha can
        capped = alpha.min() < top / cap
    width = space.cols.shape[1]
    for lo in range(0, n, width):
        w = min(width, n - lo)
        cols = space.cols[:k, :w]
        np.divide(y[:, lo:lo + w], alpha, out=cols)
        if "op" in metrics or "capacity" in metrics:
            np.sum(cols, axis=0, out=rate[lo:lo + w])
        if ber is not None:
            if capped:
                np.minimum(cols, cap, out=cols)
            _ber_slice(cols, pairs, values[lo:lo + w], space)
    if ber is not None:
        # from 1/mu = cap/3e5 on (at 1024-QAM; cap/1e3 at 16-QAM) a hop's
        # BER can round a few ulps above its limit 1/2, also in a pass
        # that does not cap 1/mu
        np.minimum(values, 0.5, out=values)
        yield "ber", values
    if "op" in metrics:
        if gamma_th == 0.0:  # no trial is in outage, not even where 0 * inf is nan
            values.fill(0.0)
        else:
            np.multiply(rate, -gamma_th, out=values)
            np.expm1(values, out=values)
            np.negative(values, out=values)
        yield "op", values
    if "capacity" in metrics:
        # the last to read the rates, which _exp_e1 may overwrite; the BER
        # kernel's slice arrays are free by now
        _exp_e1(rate, values, space.s.reshape(-1), space.low[:n])
        values *= 1.0 / (k * _LN2)
        yield "capacity", values


def _ber_terms(constants: QamConstants) -> tuple[list[tuple[float, float]], float]:
    """The BER kernel's (1/omega, weight/omega) pairs, one per distinct
    omega, and its cap on 1/mu."""
    pairs = [(1.0 / omega, phi / constants.denominator / omega)
             for omega, phi in zip(constants.omegas, constants.weights) if phi != 0.0]
    # from 1/mu = cap on every t = 1/(omega mu) exceeds 2^109, where
    # (1 + t) + sqrt(1 + t) rounds to t, so the hop's BER is its limit,
    # the sum of the weights, to within rounding: capping 1/mu there
    # moves the BER by rounding only, and keeps it finite where 1/mu is
    # inf (each term of the sum 0, the BER inf * 0)
    return pairs, 2.0 ** 110 * max(constants.omegas)


def _ber_slice(cols: np.ndarray, pairs, out: np.ndarray, space: _Workspace) -> None:
    """The end-to-end BER of a (K, w) slice of 1/mu into out."""
    k, w = cols.shape
    u, s, hop = (a[:k, :w] for a in (space.u, space.s, space.hop))
    for j, (inv_omega, folded) in enumerate(pairs):
        # weight (1 - 1/sqrt(1 + t)) = (1/mu) (weight/omega) / ((1 + t)
        # + sqrt(1 + t)), which does not cancel as t -> 0; the factor
        # 1/mu is taken out of the hop's sum
        np.multiply(cols, inv_omega, out=u)
        u += 1.0
        np.sqrt(u, out=s)
        u += s
        if j:
            hop += np.divide(folded, u, out=s)
        else:
            np.divide(folded, u, out=hop)
    hop *= cols
    # the odd-number-of-errors recursion from the last hop back to the
    # first: out <- out (1 - 2 hop_r) + hop_r
    if k == 1:
        out[...] = hop[0]
        return
    g = np.multiply(hop[:-1], -2.0, out=u[:-1])
    g += 1.0
    np.multiply(hop[-1], g[-1], out=out)
    out += hop[-2]
    for r in range(k - 3, -1, -1):
        out *= g[r]
        out += hop[r]


def _exp_e1(x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None,
            low: np.ndarray | None = None) -> np.ndarray:
    """e^x E1(x) for x >= 0, element by element, into out: a series below
    _E1_SWITCH and a continued fraction from there on.

    Where x lies on both sides of the switch, each side is packed and
    evaluated on its own, so the series length follows the largest x
    below the switch, and x is overwritten.  scratch is the series'
    float scratch and low a bool array of x's size (fresh ones if not
    given).
    """
    if out is None:
        out = np.empty_like(x)
    if scratch is None:
        scratch = np.empty(min(x.size, _SLICE))
    low = np.less(x, _E1_SWITCH, out=low)
    n_low = int(np.count_nonzero(low))
    if n_low == x.size:
        return _exp_e1_series(x, out, scratch)
    if n_low == 0:
        return _exp_e1_fraction(x, out)
    # each side's arguments packed into out, its values into x
    _pack(x, low, out[:n_low])
    high = np.logical_not(low, out=low)
    _pack(x, high, out[n_low:])
    _exp_e1_series(out[:n_low], x[:n_low], scratch)
    _exp_e1_fraction(out[n_low:], x[n_low:])
    np.place(out, high, x[n_low:])
    np.place(out, np.logical_not(high, out=high), x[:n_low])
    return out


def _pack(x: np.ndarray, mask: np.ndarray, out: np.ndarray) -> None:
    """x where mask holds, in order, into out, _SLICE values at a time:
    np.compress builds an index array as long as its input."""
    at = 0
    for lo in range(0, x.size, _SLICE):
        part = mask[lo:lo + _SLICE]
        count = int(np.count_nonzero(part))
        np.compress(part, x[lo:lo + _SLICE], out=out[at:at + count])
        at += count


def _exp_e1_series(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """e^x (S(x) - gamma - ln x) with S(x) = sum_k (-1)^(k+1) x^k/(k k!)
    (Abramowitz & Stegun 5.1.11), for 0 <= x < _E1_SWITCH, into out;
    ln x and e^x are taken in scratch, a piece at a time.

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
    out.fill(_E1_SERIES[m - 1])
    for c in reversed(_E1_SERIES[:m - 1]):
        out *= x
        out += c
    out *= x
    out -= _EULER_GAMMA
    for lo in range(0, x.size, scratch.size):
        xs = x[lo:lo + scratch.size]
        part, tmp = out[lo:lo + xs.size], scratch[:xs.size]
        part -= np.log(xs, out=tmp)
        part *= np.exp(xs, out=tmp)
    return out


def _exp_e1_fraction(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^x E1(x) for x >= _E1_SWITCH by the even part of the continued
    fraction A&S 5.1.22, 1/(x+1- 1/(x+3- 4/(x+5- 9/(x+7- ...)))), taken
    from its tail, into out."""
    f = np.add(x, 2 * _E1_FRACTION_TERMS + 1, out=out)
    for m in range(_E1_FRACTION_TERMS, 0, -1):
        np.divide(-float(m * m), f, out=f)
        f += x
        f += 2 * m - 1
    return np.divide(1.0, f, out=f)


def _moments(values: np.ndarray) -> tuple[float, float]:
    """(mean, M2) of one block: two passes over the values less
    the first one, so a constant block has M2 exactly 0.  The values are
    overwritten."""
    first = values[0]
    values -= first
    shift = values.sum() / values.size
    values -= shift
    np.multiply(values, values, out=values)
    return float(first + shift), float(values.sum())
