"""Seeded Monte Carlo cross-validation of the exact engines.

Sampling uses SplitMix64, a published, trivially portable 64-bit
generator: output i is a fixed bit-mix of seed + i * 0x9E3779B97F4A7C15,
so the stream is a pure function of (seed, index) and any batch of a run
can be regenerated independently and concurrently with identical
results.  Reference outputs for seed 0 (first three):

    0xE220A8397B1DCDAF  0x6E789E6AA1B965F4  0x06C45D188009454F

Uniform doubles take the top 53 bits, u = (z >> 11) * 2^-53 in [0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import OutcomeDistribution, _index_tables
from .distribution import collapse_outputs, outcome_distribution
from .errors import DomainError
from .model import MeanInstance
from .repetitions import median_distribution

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
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    return _sample(d.p, seed, 0, count)


def _sample(p: np.ndarray, seed: int, start: int, count: int) -> np.ndarray:
    """Inverse-CDF draws over p from stream outputs start .. start+count-1."""
    cum = np.cumsum(p)
    cum[-1] = 1.0
    u = _to_uniforms(_splitmix64_from(seed, start, count))
    return np.searchsorted(cum, u, side="right").astype(np.int64, copy=False)


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
    cross-validation contract.
    """
    if math.isnan(q) or q < 1.0 or math.isinf(q):
        raise DomainError(f"q must lie in [1, inf), got {q!r}")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    if runs < 1:
        raise DomainError(f"runs must be positive, got {runs}")
    d = outcome_distribution(inst)
    width = 2 * int(n) + 1
    j = np.arange(d.M)
    outputs = _index_tables(d.M)[2][np.minimum(j, d.M - j)]
    if d.angles.sigma_is_integer:
        # The support point's output equals the mean exactly.
        outputs[int(np.argmax(d.p))] = inst.a

    # runs r0 .. r0+c-1 read stream outputs r0*width .. (r0+c)*width - 1
    stat = np.empty(runs)
    for r0 in range(0, runs, _CHUNK_RUNS):
        c = min(_CHUNK_RUNS, runs - r0)
        draws = _sample(d.p, seed, r0 * width, c * width).reshape(c, width)
        # odd width: an exact order statistic; the gathered copy is scratch
        medians = np.median(outputs[draws], axis=1, overwrite_input=True)
        stat[r0 : r0 + c] = np.abs(inst.a - medians) ** q
    mean = float(stat.mean())
    se = float(stat.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    return SampleRun(int(seed), int(runs), mean ** (1.0 / q), se)


def exact_standard_error(inst: MeanInstance, q: float, n: int, runs: int) -> float:
    """Standard error of the mean of |a - median|^q over `runs` samples,
    from the exact median distribution.

    The comparison scale for cross-checks: a run whose draws never hit a
    rare atom reports a sample standard error of zero, and this exact
    value takes over there.
    """
    if runs < 1:
        raise DomainError(f"runs must be positive, got {runs}")
    base = collapse_outputs(outcome_distribution(inst))
    med = median_distribution(base, n)
    devs = np.abs(inst.a - med.alphas) ** q
    mean = float(np.dot(med.rhos, devs))
    var = float(np.dot(med.rhos, devs**2)) - mean**2
    return math.sqrt(max(var, 0.0) / runs)
