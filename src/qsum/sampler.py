"""Seeded Monte Carlo cross-validation of the exact engines.

Sampling uses SplitMix64, a published, trivially portable 64-bit
generator: output i is a fixed bit-mix of seed + i * 0x9E3779B97F4A7C15,
so the stream is a pure function of (seed, index) and any batch of a run
can be regenerated independently and concurrently with identical
results.  Reference outputs for seed 0 (first three):

    0xE220A8397B1DCDAF  0x6E789E6AA1B965F4  0x06C45D188009454F

Uniform doubles take the top 53 bits, u = (z >> 11) * 2^-53 in [0, 1).

Outcome draws are the exact inverse CDF j = #{i : cum[i] <= u} of the
cumulative sums cum of p (last entry set to 1), found through a guide
table (Chen & Asau 1974; Devroye 1986, III.2.4).  Its K = 2^11 equal
bins of u each store the one index their u can map to, or a miss.  Bin
b = floor(u K) covers [b/K, (b+1)/K); u K, its floor and both ends are
exact, since K is a power of two and u has 53 bits.  Each u in the bin
maps to at least lo = #{cum <= b/K} and at most hi = #{cum < (b+1)/K},
so a bin with lo == hi stores lo.  Only draws in a bin that holds a CDF
step fall back to a binary search: at most M - 1 of the K bins, each of
mass 1/K, so at most (M - 1)/K of the draws on average, under 1/32 for
M <= 64.  Either way the index is the one np.searchsorted(cum, u,
side="right") gives, bit for bit.  K does not grow with M, so the table
is 16 KB at every M; past M = K up to every draw may fall back, which
stays exact but saves nothing over the plain search.

A median of 2n+1 draws is taken on folded ranks min(j, M - j), the
smallest integer dtype that holds M/2, by an in-place partition, and
then mapped to |a - alpha|^q through a table over the ranks.  Outputs
alpha = sin^2(pi rank / M) are nondecreasing in the rank, and an order
statistic commutes with a nondecreasing map, so this equals the median
of the gathered outputs exactly.  On the integral-sigma branch every
draw hits the one support index, whose output is the mean itself.

Memory: runs are simulated in chunks of _CHUNK_RUNS, so the draw
buffers do not grow with the run count (under 1 MB at 2n+1 = 7).  What
grows is one float64 statistic per run, 8 B per run, kept so that the
mean and standard error are the pairwise sums of ndarray.mean and
ndarray.std, to the same bits at every chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import OutcomeDistribution, _index_tables, _mean_base, _median_step
from .errors import DomainError
from .model import MeanInstance
from .numerics import _check_count, _check_n, _check_q

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
# simulation without changing its result.  At width 7 a batch's arrays
# (112 KB) stay below the common 128 KiB mmap threshold of malloc, so they
# are reused from the heap instead of mapped afresh for every batch.
_CHUNK_RUNS = 2**11
# Guide-table bins, a power of two.  The Monte Carlo cross-checks (M up
# to 64) ran fastest near here: fewer bins miss more often, and the
# table (16 KB) still sits in L1.
_BINS = 2**11


@dataclass(frozen=True)
class SampleRun:
    """Empirical L_q error with its Monte Carlo uncertainty.

    empirical_error_q is the q-th root of the sample mean of
    |a - median|^q; standard_error is the standard error of that mean
    (before the root), the scale on which exact and empirical values are
    compared.
    """

    seed: int
    draws: int
    empirical_error_q: float
    standard_error: float


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of SplitMix64 for the given seed, as uint64."""
    if count < 0:
        raise DomainError(f"count must be nonnegative, got {count}")
    return _splitmix64_from(seed, 0, count)


def _splitmix64_from(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start .. start+count-1 of SplitMix64 for the given seed,
    mixed in place in one output buffer and one scratch buffer."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    t = np.empty_like(z)
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
    count = _check_count(count, "count")
    return _inverse_cdf(d.p)(_to_uniforms(_splitmix64_from(seed, 0, count)))


def _inverse_cdf(p: np.ndarray):
    """The exact inverse CDF of p as a function of uniforms u in [0, 1):
    np.searchsorted(cum, u, side="right") through a guide table (see the
    module docstring)."""
    cum = np.cumsum(p)
    cum[-1] = 1.0
    K = _BINS
    lo = np.searchsorted(cum, np.arange(K) / K, side="right")
    hi = np.searchsorted(cum, np.arange(1, K + 1) / K, side="left")
    guide = np.where(lo == hi, lo, -1).astype(np.int64, copy=False)

    def draw(u: np.ndarray) -> np.ndarray:
        j = guide.take((u * K).astype(np.intp))
        miss = np.flatnonzero(j < 0)
        j[miss] = np.searchsorted(cum, u[miss], side="right")
        return j

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
    _check_q(q)
    n = _check_n(n)
    runs = _check_count(runs, "runs")
    d = _mean_base(inst).d
    draw = _inverse_cdf(d.p)
    width = 2 * n + 1
    j = np.arange(d.M)
    ranks = np.minimum(j, d.M - j).astype(np.min_scalar_type(d.M // 2))
    alphas = _index_tables(d.M)[2]
    if d.angles.sigma_is_integer:
        # The support point's output equals the mean exactly.
        alphas = alphas.copy()
        alphas[ranks[np.argmax(d.p)]] = inst.a
    devs = np.abs(inst.a - alphas) ** q

    # runs r0 .. r0+c-1 read stream outputs r0*width .. (r0+c)*width - 1
    stat = np.empty(runs)
    for r0 in range(0, runs, _CHUNK_RUNS):
        c = min(_CHUNK_RUNS, runs - r0)
        u = _to_uniforms(_splitmix64_from(seed, r0 * width, c * width))
        r = ranks.take(draw(u)).reshape(c, width)
        r.partition(n, axis=1)  # each run's median rank lands in column n
        stat[r0 : r0 + c] = devs.take(r[:, n])
    # ndarray.mean and .std(ddof=1), bit for bit, without std's full-size
    # temporary: the same pairwise sums, then the deviations in place
    mean = float(np.add.reduce(stat) / runs)
    se = 0.0
    if runs > 1:
        stat -= mean
        stat *= stat
        se = math.sqrt(np.add.reduce(stat) / (runs - 1)) / math.sqrt(runs)
    return SampleRun(int(seed), runs, mean ** (1.0 / q), se)


def exact_standard_error(inst: MeanInstance, q: float, n: int, runs: int) -> float:
    """Standard error of the mean of |a - median|^q over `runs` samples,
    from the exact median distribution.

    The comparison scale for cross-checks: a run whose draws never hit a
    rare atom reports a sample standard error of zero, and this exact
    value takes over there.  It is exactly 0 on the integral-sigma branch,
    where every median is the mean itself.
    """
    _check_q(q)
    n = _check_n(n)
    runs = _check_count(runs, "runs")
    base = _mean_base(inst)
    if base.d.angles.sigma_is_integer:
        return 0.0
    rhos = _median_step(base.rhos, base.points, n)[0]
    devs = np.abs(inst.a - _index_tables(inst.M)[2]) ** q
    mean = float(np.dot(rhos, devs))
    var = float(np.dot(rhos, devs**2)) - mean**2
    return math.sqrt(max(var, 0.0) / runs)
