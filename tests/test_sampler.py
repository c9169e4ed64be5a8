import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsum
from qsum import sampler
from qsum.errors import DomainError
from qsum.model import MeanInstance, random_instances
from qsum.distribution import _index_tables, collapse_outputs, outcome_distribution
from qsum.error_analysis import local_avg_error
from qsum.repetitions import median_distribution, repetition_error
from qsum.sampler import (
    empirical_repetition_error,
    exact_standard_error,
    sample_outcomes,
    splitmix64,
    uniform_doubles,
)


class TestSplitMix64:
    def test_published_reference_vector(self):
        # first three outputs for seed 0, as published for the algorithm
        got = [int(x) for x in splitmix64(0, 3)]
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_seed_wraps_modulo_64_bits(self):
        assert np.array_equal(splitmix64(2**64 + 5, 4), splitmix64(5, 4))

    def test_empty_stream(self):
        # a count of 0 is a valid stream length
        assert splitmix64(1, 0).shape == (0,) and splitmix64(1, 0).dtype == np.uint64

    def test_uniform_range(self):
        u = uniform_doubles(99, 10_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        # crude uniformity: mean within 5 sigma of 1/2
        assert abs(u.mean() - 0.5) <= 5 * (1 / math.sqrt(12)) / math.sqrt(10_000)


class TestSampleOutcomes:
    def test_point_mass(self):
        d = outcome_distribution(MeanInstance(0, 8, 7))
        assert np.all(sample_outcomes(d, 1000, seed=1) == 0)

    def test_determinism(self):
        d = outcome_distribution(MeanInstance(8, 8, 3))
        a = sample_outcomes(d, 5000, seed=2024)
        b = sample_outcomes(d, 5000, seed=2024)
        assert np.array_equal(a, b)
        c = sample_outcomes(d, 5000, seed=2025)
        assert not np.array_equal(a, c)

    def test_frequencies_match_p(self):
        d = outcome_distribution(MeanInstance(8, 8, 3))
        draws = sample_outcomes(d, 10**6, seed=7)
        freq0 = np.mean(draws == 0)
        se = math.sqrt((1 / 9) * (8 / 9) / 10**6)
        assert abs(freq0 - 1 / 9) <= 4 * se

    def test_validation(self):
        d = outcome_distribution(MeanInstance(8, 8, 3))
        with pytest.raises(DomainError):
            sample_outcomes(d, 0, seed=1)


class TestEmpiricalRepetitionError:
    def test_n0_agrees_with_exact(self):
        inst = MeanInstance(8, 8, 3)
        run = empirical_repetition_error(inst, 1.0, 0, 10**5, seed=13)
        exact = local_avg_error(inst, 1.0)
        assert abs(run.empirical_error_q - exact) <= 4 * run.standard_error

    def test_integral_sigma_exactly_zero(self):
        run = empirical_repetition_error(MeanInstance(4, 8, 4), 2.0, 2, 2000, seed=3)
        assert run.empirical_error_q == 0.0
        assert run.standard_error == 0.0

    def test_median_boost_agrees_with_exact(self):
        inst = MeanInstance(8, 8, 3)
        run = empirical_repetition_error(inst, 1.0, 1, 10**5, seed=17)
        exact = repetition_error(inst, 1.0, 1)
        assert abs(run.empirical_error_q - exact) <= 4 * run.standard_error

    def test_power_domain_agreement(self):
        # the standard error lives on the |a - median|^q scale
        inst = MeanInstance(5, 32, 10)
        q = 2.0
        run = empirical_repetition_error(inst, q, 1, 10**5, seed=19)
        exact = repetition_error(inst, q, 1)
        assert abs(run.empirical_error_q**q - exact**q) <= 4 * run.standard_error

    def test_bitwise_reproducibility(self):
        inst = MeanInstance(3, 64, 12)
        a = empirical_repetition_error(inst, 2.0, 2, 5000, seed=23)
        b = empirical_repetition_error(inst, 2.0, 2, 5000, seed=23)
        assert a == b

    def test_one_rank_standard_error_is_exactly_zero(self):
        # every run's median takes the same rank: a sum over the runs left
        # rounding noise (1.5e-24) as the standard error
        inst = MeanInstance(1017, 1240, 410)
        counts = sampler._median_rank_counts(outcome_distribution(inst), 8, 5000, 7)
        assert np.count_nonzero(counts) == 1
        run = empirical_repetition_error(inst, 2.0, 8, 5000, seed=7)
        assert run.empirical_error_q > 0.0
        assert run.standard_error == 0.0

    def test_standard_error_shrinks(self):
        inst = MeanInstance(8, 8, 3)
        small = empirical_repetition_error(inst, 1.0, 0, 10**3, seed=29)
        large = empirical_repetition_error(inst, 1.0, 0, 10**5, seed=29)
        assert large.standard_error < small.standard_error

    def test_exact_standard_error(self):
        # n = 0, q = 1 at the three-outcome instance: the per-sample stat
        # takes values 1 and 1/4 with masses 1/9 and 8/9
        inst = MeanInstance(8, 8, 3)
        var = (1 / 9) * 1.0 + (8 / 9) * (1 / 16) - (1 / 3) ** 2
        assert exact_standard_error(inst, 1.0, 0, 10**4) == pytest.approx(
            math.sqrt(var / 10**4), rel=1e-12
        )
        # agrees with the sampled standard error within a few percent
        run = empirical_repetition_error(inst, 1.0, 0, 10**5, seed=31)
        assert run.standard_error == pytest.approx(
            exact_standard_error(inst, 1.0, 0, 10**5), rel=0.05
        )
        assert exact_standard_error(MeanInstance(4, 8, 4), 2.0, 1, 100) == 0.0

    def test_validation(self):
        inst = MeanInstance(8, 8, 3)
        with pytest.raises(DomainError):
            empirical_repetition_error(inst, 0.5, 0, 100, seed=1)
        with pytest.raises(DomainError):
            empirical_repetition_error(inst, 1.0, -1, 100, seed=1)
        with pytest.raises(DomainError):
            empirical_repetition_error(inst, 1.0, 0, 0, seed=1)

    @staticmethod
    def fsum_standard_error(inst, q, n, runs):
        """The two-pass standard error in exact sums, over the median
        distribution of the collapsed outputs."""
        med = median_distribution(collapse_outputs(outcome_distribution(inst)), n)
        devs = [abs(inst.a - float(a)) ** q for a in med.alphas]
        rhos = [float(r) for r in med.rhos]
        mean = math.fsum(r * x for r, x in zip(rhos, devs))
        var = math.fsum(r * (x - mean) ** 2 for r, x in zip(rhos, devs))
        return math.sqrt(max(var, 0.0) / runs)

    @pytest.mark.parametrize(
        "k, N, M, q, n, want",
        [
            # E[X^2] - E[X]^2 gave 0.0 and 5.14e-12 here
            (481106, 931040, 784, 2.0, 64, 9.69e-27),
            (634931, 730430, 1301, 1.0, 64, 2.29e-12),
        ],
    )
    def test_exact_standard_error_concentrated(self, k, N, M, q, n, want):
        inst = MeanInstance(k, N, M)
        got = exact_standard_error(inst, q, n, 1)
        assert got == pytest.approx(want, rel=5e-3, abs=0.0)
        assert got == pytest.approx(self.fsum_standard_error(inst, q, n, 1), rel=1e-12, abs=0.0)

    def test_exact_standard_error_two_pass(self):
        rng = np.random.default_rng(20)
        for inst in random_instances(rng, 40, m_range=(2, 1999), require_noninteger=True):
            for q, n in ((1.0, 0), (2.0, 3), (1.5, 64)):
                assert exact_standard_error(inst, q, n, 100) == pytest.approx(
                    self.fsum_standard_error(inst, q, n, 100), rel=1e-12, abs=0.0
                ), (inst, q, n)

    @pytest.mark.parametrize("q", [0.5, -1.0, math.nan, math.inf])
    def test_exact_standard_error_q_rule(self, q):
        # repetition_error's rule and message, word for word
        inst = MeanInstance(3, 7, 13)
        with pytest.raises(DomainError) as want:
            repetition_error(inst, q, 1)
        with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
            exact_standard_error(inst, q, 1, 100)

    @pytest.mark.parametrize("runs", [1.5, True, 1.0, 0, -2, np.float64(3.0)])
    def test_run_count_rule(self, runs):
        # an integer, not a bool, at least 1: the same message everywhere
        inst = MeanInstance(3, 7, 13)
        with pytest.raises(DomainError) as want:
            empirical_repetition_error(inst, 1.0, 1, runs, seed=1)
        with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
            exact_standard_error(inst, 1.0, 1, runs)
        with pytest.raises(DomainError, match=re.escape(str(want.value)).replace("runs", "count")):
            sample_outcomes(outcome_distribution(inst), runs, seed=1)

    def test_numpy_integer_run_counts(self):
        inst = MeanInstance(3, 7, 13)
        run = empirical_repetition_error(inst, 1.0, 1, np.int64(100), seed=1)
        assert run == empirical_repetition_error(inst, 1.0, 1, 100, seed=1)
        assert type(run.draws) is int
        assert exact_standard_error(inst, 1.0, 1, np.int32(100)) == exact_standard_error(inst, 1.0, 1, 100)
        d = outcome_distribution(inst)
        assert np.array_equal(sample_outcomes(d, np.int64(50), seed=2), sample_outcomes(d, 50, seed=2))

    @pytest.mark.parametrize("n", [65, np.int64(65), -1, True, 1.0])
    def test_n_rule_matches_exact_engines(self, n):
        # the exact median distribution's message, word for word
        inst = MeanInstance(3, 7, 13)
        with pytest.raises(DomainError) as want:
            median_distribution(collapse_outputs(outcome_distribution(inst)), n)
        with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
            empirical_repetition_error(inst, 1.0, n, 100, seed=1)


_ARG_INST = MeanInstance(3, 7, 13)
# the four public functions that read the stream, by (seed, count)
_STREAM_CALLS = {
    "splitmix64": splitmix64,
    "uniform_doubles": uniform_doubles,
    "sample_outcomes": lambda seed, count: sample_outcomes(outcome_distribution(_ARG_INST), count, seed),
    "empirical_repetition_error": lambda seed, count: empirical_repetition_error(_ARG_INST, 1.0, 1, count, seed),
}


@pytest.mark.parametrize("name", list(_STREAM_CALLS))
class TestStreamArguments:
    """Seeds and draw counts: integers, not bools, so that a float is not
    truncated and True is not read as seed 1."""

    @pytest.mark.parametrize("seed", [2.5, 1.0, np.float64(3.0), True, False, None, "7"])
    def test_seed_rule(self, name, seed):
        with pytest.raises(DomainError, match="^seed must be an integer, got "):
            _STREAM_CALLS[name](seed, 10)

    @pytest.mark.parametrize("count", [2.5, 2.0, np.float64(3.0), True, False, None, -1])
    def test_count_rule(self, name, count):
        with pytest.raises(DomainError, match=r"^(count|runs) must be (an integer|nonnegative|positive), got "):
            _STREAM_CALLS[name](1, count)

    def test_integer_seeds(self, name):
        # numpy integers of either sign, read like Python ints modulo 2^64
        call = _STREAM_CALLS[name]
        for seed, same in ((np.int64(-3), 2**64 - 3), (np.uint64(2**63 + 1), 2**63 + 1)):
            a, b = call(seed, 10), call(same, 10)
            if isinstance(a, sampler.SampleRun):
                a, b = (a.empirical_error_q, a.standard_error), (b.empirical_error_q, b.standard_error)
            assert np.array_equal(a, b)


def _searchsorted_draws(p, u):
    """The reference inverse CDF: binary search over the cumulative sums."""
    cum = np.cumsum(p)
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


def _uniforms_of(z):
    """The uniform u = (z >> 11) 2^-53 of each stream output z."""
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _outputs_around(edges):
    """Stream outputs around each edge uniform: the 53-bit values at, just
    below and just above it, each with the 11 low bits that the uniform
    drops all zero and all ones."""
    m = np.floor(edges * 2.0**53).astype(np.int64)  # exact: a power-of-two scale
    m = np.concatenate((m - 1, m, m + 1))
    top = np.unique(m[(m >= 0) & (m < 2**53)]).astype(np.uint64) << np.uint64(11)
    return np.concatenate((top, top | np.uint64(2**11 - 1)))


# The outputs that do not depend on p, built once: around u = 0, the
# largest uniform 1 - 2^-53 and every bin edge of a guide table with up to
# 2^16 bins; then a spread of stream outputs.
_FIXED_OUTPUTS = np.concatenate((
    _outputs_around(np.concatenate(([0.0, 1.0 - 2.0**-53], np.arange(2**16) / 2**16))),
    splitmix64(5, 20_000),
))


def _edge_outputs(p):
    """Stream outputs around each edge uniform (u = 0, the largest uniform
    1 - 2^-53, every CDF step, every bin edge), then a spread of stream
    outputs."""
    cum = np.cumsum(p)
    cum[-1] = 1.0
    return np.concatenate((_outputs_around(cum), _FIXED_OUTPUTS))


def _guide_draws(p, z):
    """sampler._inverse_cdf's draws of z for both label sets it is used
    with: the indices themselves (sample_outcomes) and the folded ranks
    min(j, M - j) in a key dtype (the medians).  Checks that z is kept."""
    M = len(p)
    j = np.arange(M)
    out = []
    for labels in (j, np.minimum(j, M - j).astype(np.uint32)):
        kept = z.copy()
        got = sampler._inverse_cdf(p, labels)(z, np.empty_like(z))
        assert np.array_equal(z, kept)
        assert got.dtype == labels.dtype
        out.append((got, labels))
    return out


class TestGuideTableInverseCdf:
    """The guide-table draw of stream outputs against np.searchsorted on
    their uniforms, index for index, and the premise of the rank median."""

    @staticmethod
    def check(p):
        z = _edge_outputs(p)
        want = _searchsorted_draws(p, _uniforms_of(z))
        for got, labels in _guide_draws(p, z):
            assert np.array_equal(got, labels[want])

    @pytest.mark.parametrize("M", [1, 2, 7, 256, 4096])
    def test_point_masses(self, M):
        for i in {0, M // 2, M - 1}:
            p = np.zeros(M)
            p[i] = 1.0
            self.check(p)

    @pytest.mark.parametrize("M, m", [(7, 2), (64, 1), (600, 150), (4096, 1000), (4096, 2047)])
    @pytest.mark.parametrize("delta", [-1e-6, 1e-8, 3e-7])
    def test_near_integral_sigma(self, M, m, delta):
        # sigma within delta of an integer, but not snapped to it: nearly
        # all mass sits on the indices next to sigma and M - sigma, so the
        # CDF steps crowd the first and last bins (and the middle ones)
        N = 2**50
        k = round(math.sin(math.pi * (m + delta) / M) ** 2 * N)
        d = outcome_distribution(MeanInstance(k, N, M))
        assert not d.angles.sigma_is_integer
        assert np.sort(d.p)[-2:].sum() > 0.99
        self.check(d.p)

    @pytest.mark.parametrize("M", [3, 50, 255, 1000, 4096])
    def test_outcome_distributions(self, M):
        rng = np.random.default_rng(M)
        for _ in range(3):
            N = int(rng.integers(M + 1, 2**20))
            self.check(outcome_distribution(MeanInstance(int(rng.integers(0, N + 1)), N, M)).p)

    @pytest.mark.parametrize("M", [1, 2, 32, 64, 1024, 4096])
    def test_steps_on_bin_edges(self, M):
        # uniform p over a power of two: every CDF step is a bin edge
        self.check(np.full(M, 1.0 / M))

    def test_zero_entries_and_tiny_masses(self):
        rng = np.random.default_rng(11)
        for M in (5, 300, 4096):
            p = rng.random(M) ** 8
            p[rng.random(M) < 0.5] = 0.0
            p[rng.integers(M)] = 1e-300
            self.check(p / p.sum())

    def test_bin_count_is_a_power_of_two(self):
        # the premise of exact bins: u K, its floor and the bin ends b/K
        # are then exact, and the bin is the top bits of the stream output
        K = sampler._BINS
        assert K >= 1 and K & (K - 1) == 0
        z = _edge_outputs(np.full(3, 1.0 / 3))
        assert np.array_equal(z >> sampler._BIN_SHIFT, np.floor(_uniforms_of(z) * K).astype(np.uint64))

    def test_outputs_nondecreasing_in_rank(self):
        # the premise of the rank median: an order statistic commutes with
        # a nondecreasing map only
        for M in range(1, 3000):
            assert np.all(np.diff(_index_tables(M)[2]) >= 0.0), M

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            weights=st.lists(
                st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=1, max_size=600
            ).filter(lambda w: sum(w) > 0),
            grid=st.lists(st.integers(0, 2**64 - 1), max_size=50),
        )
        def prop(weights, grid):
            p = np.array(weights) / math.fsum(weights)
            z = np.concatenate((_edge_outputs(p), np.array(grid, dtype=np.uint64)))
            want = _searchsorted_draws(p, _uniforms_of(z))
            for got, labels in _guide_draws(p, z):
                assert np.array_equal(got, labels[want])

        prop()


class TestChunkedDraws:
    @staticmethod
    def one_pass(inst, q, n, runs, seed):
        """The simulation with every draw materialized at once: the median
        rank of each run, checked against the median of its gathered
        outputs, and the result through the sampler's rank reduction."""
        d = outcome_distribution(inst)
        width = 2 * n + 1
        draws = sample_outcomes(d, runs * width, seed).reshape(runs, width)
        j = np.arange(inst.M)
        ranks = np.minimum(j, inst.M - j)
        outputs = np.sin(np.pi * np.arange(inst.M // 2 + 1) / inst.M) ** 2
        medians = np.median(ranks[draws], axis=1).astype(np.intp)
        assert np.array_equal(outputs[medians], np.median(outputs[ranks[draws]], axis=1))
        counts = np.bincount(medians, minlength=inst.M // 2 + 1)
        mean, var = sampler._rank_moments(counts / runs, np.abs(inst.a - outputs) ** q)
        # the same moments summed over runs, which round in another order:
        # where every median took one rank, that sum's standard error is
        # rounding noise on the scale of the mean, and the ranks' exactly 0
        se = math.sqrt(var / (runs - 1))
        stat = np.abs(inst.a - outputs[medians]) ** q
        assert mean == pytest.approx(stat.mean(), rel=1e-15, abs=0.0)
        assert se == pytest.approx(stat.std(ddof=1) / math.sqrt(runs), rel=1e-15, abs=1e-15 * mean)
        return counts, (mean ** (1.0 / q), se)

    @pytest.mark.parametrize("chunk", [1, 7, 2**16])
    @pytest.mark.parametrize(
        "q, n, M",
        [
            pytest.param(1.0, 0, 10, id="1.0-0"),
            pytest.param(2.0, 1, 10, id="2.0-1"),
            pytest.param(3.0, 3, 10, id="3.0-3"),
            pytest.param(1.5, 8, 10, id="1.5-8"),
            pytest.param(2.0, 64, 10, id="2.0-64"),
            # ranks past 255, two bytes each; keys of 10 rank bits
            pytest.param(2.0, 2, 600, id="2.0-2-M600"),
        ],
    )
    def test_chunked_equals_one_pass(self, q, n, M, chunk, monkeypatch):
        inst = MeanInstance(5, 32, 10) if M == 10 else MeanInstance(123, 4096, M)
        runs = 250  # 7 does not divide it
        counts, want = self.one_pass(inst, q, n, runs, seed=77)
        monkeypatch.setattr(sampler, "_CHUNK_RUNS", chunk)
        got = sampler._median_rank_counts(outcome_distribution(inst), n, runs, 77)
        assert got.dtype == np.int64 and np.array_equal(got, counts)
        run = empirical_repetition_error(inst, q, n, runs, seed=77)
        assert (run.empirical_error_q, run.standard_error) == want

    def test_uint64_keys(self, monkeypatch):
        # a chunk's keys past 2^32 (bits = 17, 2^15 + 1 runs): the masked
        # ranks are uint64, which some numpy versions' bincount refuses
        inst, n, runs = MeanInstance(12345, 2**20, 2**17), 1, 2**15 + 1
        assert runs << (inst.M // 2).bit_length() > 2**32
        counts, want = self.one_pass(inst, 2.0, n, runs, seed=5)
        monkeypatch.setattr(sampler, "_CHUNK_RUNS", 2**16)
        got = sampler._median_rank_counts(outcome_distribution(inst), n, runs, 5)
        assert np.array_equal(got, counts)
        run = empirical_repetition_error(inst, 2.0, n, runs, seed=5)
        assert (run.empirical_error_q, run.standard_error) == want


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in Path(qsum.__file__).parent.glob("*.py"))
)
def test_module_imports_on_its_own(module):
    # a fresh interpreter per module: no import cycle hides behind an
    # import order that happens to work
    name = "qsum" if module == "__init__" else f"qsum.{module}"
    env = dict(os.environ)
    src = str(Path(qsum.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", f"import {name}"], check=True, env=env)


_PEAK_RSS = """
import sys
from qsum.model import MeanInstance
from qsum.sampler import empirical_repetition_error
empirical_repetition_error(MeanInstance(3, 7, 13), 1.0, int(sys.argv[1]), int(sys.argv[2]), 7)
with open("/proc/self/status") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))  # kB
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
@pytest.mark.parametrize("n, small, large", [(0, 10**5, 10**7), (3, 10**5, 2 * 10**6)])
def test_memory_does_not_grow_with_runs(n, small, large):
    # one fresh interpreter per run count, each reading the peak resident
    # size of its own address space: a statistic kept per run would add
    # 8 B per run, 80 MB at 10^7 runs.  (getrusage's ru_maxrss would not
    # do: Linux carries the forking test process's peak over into it.)
    env = dict(os.environ)
    src = str(Path(qsum.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    peaks = [
        int(subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, str(n), str(runs)],
            check=True, env=env, capture_output=True, text=True,
        ).stdout)
        for runs in (small, large)
    ]
    assert peaks[1] - peaks[0] <= 4 * 1024, peaks


class TestPinnedStreams:
    """Exact bits of the sampler's results, so a change in how draws are
    buffered, converted or reduced cannot move them."""

    @pytest.mark.parametrize(
        "k, N, M, q, n, runs, seed, mean_hex, se_hex",
        [
            # a million medians of 7
            (37, 1000, 50, 1.0, 3, 10**6, 11, "0x1.ef00eb9ce6952p-10", "0x1.16e614e97f7c0p-25"),
            (100, 1000, 40, 2.0, 1, 10**5, 12345, "0x1.5300e036ed430p-8", "0x1.2c9cfa40da839p-20"),
            (5, 64, 9, 3.0, 0, 50001, 2**61, "0x1.c8d1d924eeba5p-3", "0x1.5862f6fdd9be9p-12"),
            (1, 2, 22, 1.5, 2, 7777, 3, "0x1.2ebfd9f7b1733p-4", "0x1.f8823ac8ac4cdp-14"),
            # ranks past 255 (two-byte rank dtype); the largest n
            (123, 4096, 600, 2.0, 2, 20000, 99, "0x1.1bcf689790d55p-11", "0x1.3a8c6ecbe0c3dp-27"),
            (574, 1024, 13, 1.0, 64, 3000, 1, "0x1.e6e37c62653c2p-4", "0x1.36a98eb1da572p-15"),
        ],
    )
    def test_sample_run_bits(self, k, N, M, q, n, runs, seed, mean_hex, se_hex):
        run = empirical_repetition_error(MeanInstance(k, N, M), q, n, runs, seed)
        assert (run.empirical_error_q.hex(), run.standard_error.hex()) == (mean_hex, se_hex)

    def test_uniform_bits(self):
        assert uniform_doubles(5, 4).tolist() == [
            0.386768045983934, 0.7523070158382239, 0.2327091656774618, 0.09933941132660251,
        ]
        assert uniform_doubles(5, 0).shape == (0,)
        assert sample_outcomes(outcome_distribution(MeanInstance(3, 7, 13)), 1000, 9).dtype == np.int64
