"""Seeded Monte Carlo cross-validation of the exact engines.

Sampling uses SplitMix64, a published, trivially portable 64-bit
generator: output i is a fixed bit-mix of seed + i * 0x9E3779B97F4A7C15,
so the stream is a pure function of (seed, index) and any batch of a run
can be regenerated independently and concurrently with identical
results.  Reference outputs for seed 0 (first three):

    0xE220A8397B1DCDAF  0x6E789E6AA1B965F4  0x06C45D188009454F

Uniform doubles take the top 53 bits, u = (z >> 11) * 2^-53 in [0, 1).
A run of outputs from any start is one add of the scalar seed + start *
gamma (mod 2^64) to the offsets (i + 1) * gamma, which a simulation
computes once per call, then the mix.

Outcome draws are the exact inverse CDF j = #{i : cum[i] <= u} of the
cumulative sums cum of p (last entry set to 1), found through a guide
table (Chen & Asau 1974; Devroye 1986, III.2.4).  Its K = 2^11 equal
bins of u each store the label of the one index their u can map to, or
a miss.  Bin b = floor(u K) covers [b/K, (b+1)/K); u K, its floor and
both ends are exact, since K is a power of two and u has 53 bits, and b
is read off the integer output as its top 11 bits, z >> 53, without
forming u.  Each u in the bin maps to at least lo = #{cum <= b/K} and at
most hi = #{cum < (b+1)/K}, so a bin with lo == hi stores lo's label.
Only draws in a bin that holds a CDF step fall back to a binary search
on their uniforms, the only ones formed: at most M - 1 of the K bins,
each of mass 1/K, so at most (M - 1)/K of the draws on average, under
1/32 for M <= 64.  Either way the index is the one np.searchsorted(cum,
u, side="right") gives, bit for bit.  K does not grow with M, so the
table is 8 KB of uint32 ranks (16 KB of int64 indices for
sample_outcomes) at every M; past M = K up to every draw may fall back,
which stays exact but saves nothing over the plain search.

A median of 2n+1 draws is taken on folded ranks min(j, M - j), the
labels of the median table, and its statistic |a - alpha|^q read from a
table over the ranks.  Outputs alpha = sin^2(pi rank / M) are
nondecreasing in the rank, and an order statistic commutes with a
nondecreasing map, so this equals the median of the gathered outputs
exactly.  Each draw of a chunk's run r becomes the key (r << bits) |
rank, bits wide enough for M/2, in uint32 while the chunk's keys fit
and uint64 past that; one flat sort of the chunk's keys puts run r's
draws in order in slots r w .. r w + w - 1 (w = 2n+1), so its median
rank is key[r w + n] & (2^bits - 1).  A run of one draw needs no sort.
On the integral-sigma branch every draw would hit the one support
index, whose output is the mean itself, so a simulation there returns
an error and a standard error of 0 without drawing.

A run's statistic takes one of the M // 2 + 1 values of the rank table,
so the runs reduce to how many medians took each rank.  The sample mean
and the two-pass sample variance are then sums over ranks under the
frequencies counts / runs, as exact_standard_error's are under the exact
median masses; when every median took one rank, its frequency is exactly
1 and the standard error exactly 0.

Memory: runs are simulated in chunks of _CHUNK_RUNS, so the draw
buffers do not grow with the run count, and each chunk only adds its
medians to the counts, 8 B per rank.  Nothing grows with runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import OutcomeDistribution, _base_devs, _base_masses, _mean_base
from .model import MeanInstance
from .numerics import _check_int, _check_n, _check_q

__all__ = [
    "SampleRun",
    "splitmix64",
    "uniform_doubles",
    "sample_outcomes",
    "empirical_repetition_error",
    "exact_standard_error",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
# Runs simulated per batch of draws: bounds the draw arrays of a large
# simulation without changing its result.  The counter offsets and the
# two mixing buffers are allocated once per call; at width 7 the arrays
# made per batch (56 KB of keys) stay below the common 128 KiB mmap
# threshold of malloc, so they are reused from the heap.
_CHUNK_RUNS = 2**11
# Guide-table bins, a power of two.  The Monte Carlo cross-checks (M up
# to 64) ran fastest near here: fewer bins miss more often, and the
# table (16 KB) still sits in L1.
_BINS = 2**11
# The bin of a stream output z: its top bits, z >> 53 = floor(u K) for
# u = (z >> 11) 2^-53, exactly, since K = 2^11.
_BIN_SHIFT = np.uint64(65 - _BINS.bit_length())


@dataclass(frozen=True)
class SampleRun:
    """Empirical L_q error with its Monte Carlo uncertainty.

    draws counts the simulated medians (the runs), each of 2n+1 outcome
    draws, so 2n+1 times as many outcomes were drawn.  empirical_error_q
    is the q-th root of the sample mean of |a - median|^q; standard_error
    is the standard error of that mean (before the root), the scale on
    which exact and empirical values are compared.
    """

    seed: int
    draws: int
    empirical_error_q: float
    standard_error: float


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of SplitMix64 for the given seed, as uint64."""
    seed = _check_int(seed, "seed")
    count = _check_int(count, "count", 0)
    z = _counters(count)
    z += _base(seed, 0)
    return _mix(z, np.empty_like(z))


def _counters(count: int) -> np.ndarray:
    """Counter offsets (i + 1) * gamma mod 2^64 of a stream's outputs
    i < count, counted from any start: see _base."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= _GAMMA
    return z


def _base(seed: int, start: int) -> np.uint64:
    """(seed + start * gamma) mod 2^64: output start + i of the stream
    mixes this plus offset i of _counters."""
    return np.uint64((seed + start * int(_GAMMA)) & 0xFFFFFFFFFFFFFFFF)


def _mix(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of the counters z, in place, with t (of
    z's shape and dtype) as scratch."""
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= mix
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _to_uniforms(z: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) of stream outputs z, converted in z's buffer."""
    z >>= np.uint64(11)
    u = z.view(np.float64)
    np.multiply(z, _U53, out=u)
    return u


def uniform_doubles(seed: int, count: int) -> np.ndarray:
    """count iid uniforms in [0, 1) from the SplitMix64 stream."""
    return _to_uniforms(splitmix64(seed, count))


def sample_outcomes(d: OutcomeDistribution, count: int, seed: int) -> np.ndarray:
    """count iid outcome indices drawn by inverse CDF over p.

    Deterministic in (seed, count): the same call always returns the same
    index sequence, bit for bit.
    """
    count = _check_int(count, "count", 1)
    z = splitmix64(seed, count)
    return _inverse_cdf(d.p, np.arange(d.M))(z, np.empty_like(z))


def _inverse_cdf(p: np.ndarray, labels: np.ndarray):
    """The exact inverse CDF of p as a function of stream outputs z: the
    label of index np.searchsorted(cum, u, side="right") at each uniform
    u = (z >> 11) 2^-53, through a guide table (see the module docstring).

    The table holds labels in their integer dtype, whose all-ones value
    marks a miss, so no label may take it.  The draw also takes a scratch
    array t of z's shape and dtype, and leaves z as it was.
    """
    cum = np.cumsum(p)
    cum[-1] = 1.0
    K = _BINS
    lo = np.searchsorted(cum, np.arange(K) / K, side="right")
    hi = np.searchsorted(cum, np.arange(1, K + 1) / K, side="left")
    miss = ~labels.dtype.type(0)
    guide = np.where(lo == hi, labels.take(lo), miss)

    def draw(z: np.ndarray, t: np.ndarray) -> np.ndarray:
        np.right_shift(z, _BIN_SHIFT, out=t)  # the bin floor(u K), < K
        out = guide.take(t.view(np.intp), mode="wrap")  # in range: no check
        fall = np.flatnonzero(out == miss)
        out[fall] = labels.take(np.searchsorted(cum, _to_uniforms(z[fall]), side="right"))
        return out

    return draw


def empirical_repetition_error(
    inst: MeanInstance,
    q: float,
    n: int,
    runs: int,
    seed: int,
) -> SampleRun:
    """Simulate `runs` medians of 2n+1 outputs and average |a - median|^q.

    The n = 0 case estimates the plain local error; agreement with the
    exact engines within a few standard errors is the package's
    cross-validation contract.  n follows the exact engines' rule: an
    integer in [0, MAX_REPETITION_N].
    """
    q = _check_q(q)
    n = _check_n(n)
    runs = _check_int(runs, "runs", 1)
    seed = _check_int(seed, "seed")
    base = _mean_base(inst)
    d = base.d
    if d.angles.sigma_is_integer:
        return SampleRun(seed, runs, 0.0, 0.0)  # every median is the mean
    devs = _base_devs(base, q)[0]
    mean, var = _rank_moments(_median_rank_counts(d, n, runs, seed) / runs, devs)
    # the sample variance is var * runs / (runs - 1), over runs for the mean
    se = math.sqrt(var / (runs - 1)) if runs > 1 else 0.0
    return SampleRun(seed, runs, mean ** (1.0 / q), se)


def _median_rank_counts(d: OutcomeDistribution, n: int, runs: int, seed: int) -> np.ndarray:
    """How many of `runs` simulated medians of 2n+1 draws from d take each
    folded rank 0 .. M // 2, as int64 (see the module docstring)."""
    width = 2 * n + 1
    j = np.arange(d.M)
    ranks = np.minimum(j, d.M - j)
    # A chunk's draws are keys (run << bits) | rank over its runs run <
    # chunk: one sort puts each run's ranks in order in its own slot.
    chunk = min(_CHUNK_RUNS, runs)
    bits = (d.M // 2).bit_length()
    key = np.uint32 if chunk << bits <= 2**32 else np.uint64
    mask = key(2**bits - 1)
    draw = _inverse_cdf(d.p, ranks.astype(key))
    runs_keys = np.repeat(np.arange(chunk, dtype=key) << key(bits), width)
    offsets = _counters(chunk * width)
    z, t = np.empty_like(offsets), np.empty_like(offsets)

    # runs r0 .. r0+c-1 read stream outputs r0*width .. (r0+c)*width - 1
    counts = np.zeros(d.M // 2 + 1, dtype=np.int64)
    for r0 in range(0, runs, _CHUNK_RUNS):
        c = min(_CHUNK_RUNS, runs - r0)
        zc, tc = z[: c * width], t[: c * width]
        np.add(offsets[: c * width], _base(seed, r0 * width), out=zc)
        r = draw(_mix(zc, tc), tc)
        if width > 1:  # else the one draw is the median
            r |= runs_keys[: c * width]
            r.sort()
            r = r[n::width] & mask  # each run's (n+1)-th smallest rank
        # some numpy versions' bincount refuses uint64 under safe casting;
        # the masked ranks, below M // 2 + 1, fit intp
        counts += np.bincount(r.astype(np.intp, copy=False), minlength=counts.size)
    return counts


def _rank_moments(weights: np.ndarray, devs: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the statistic devs over ranks under the
    probability weights, the variance in two passes: E[X^2] - E[X]^2
    cancels when the statistic is concentrated.  A weight of exactly 1 on
    one rank gives that rank's value and a variance of exactly 0."""
    mean = float(np.dot(weights, devs))
    sq = devs - mean
    sq *= sq
    return mean, float(np.dot(weights, sq))


def exact_standard_error(inst: MeanInstance, q: float, n: int, runs: int) -> float:
    """Standard error of the mean of |a - median|^q over `runs` samples,
    from the exact median distribution.

    The comparison scale for cross-checks: a run whose draws never hit a
    rare atom reports a sample standard error of zero, and this exact
    value takes over there.  It is exactly 0 on the integral-sigma branch,
    where every median is the mean itself.  The median masses and the
    deviations come from the one-mean memo (distribution._base_masses and
    _base_devs), shared with repetition_error.
    """
    q = _check_q(q)
    n = _check_n(n)
    runs = _check_int(runs, "runs", 1)
    base = _mean_base(inst)
    if base.d.angles.sigma_is_integer:
        return 0.0
    devs = _base_devs(base, q)[0]
    return math.sqrt(_rank_moments(_base_masses(base, n)[0], devs)[1] / runs)
