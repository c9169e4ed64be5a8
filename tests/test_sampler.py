import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsum
from qsum import sampler
from qsum.errors import DomainError
from qsum.model import MeanInstance
from qsum.distribution import outcome_distribution
from qsum.error_analysis import local_avg_error
from qsum.repetitions import repetition_error
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


class TestChunkedDraws:
    @staticmethod
    def one_pass(inst, q, n, runs, seed):
        """The simulation with every draw materialized at once."""
        d = outcome_distribution(inst)
        width = 2 * n + 1
        draws = sample_outcomes(d, runs * width, seed).reshape(runs, width)
        j = np.arange(inst.M)
        outputs = np.sin(np.pi * np.minimum(j, inst.M - j) / inst.M) ** 2
        stat = np.abs(inst.a - np.median(outputs[draws], axis=1)) ** q
        se = float(stat.std(ddof=1) / math.sqrt(runs))
        return float(stat.mean()) ** (1.0 / q), se

    @pytest.mark.parametrize("chunk", [1, 7, 2**16])
    @pytest.mark.parametrize("q, n", [(1.0, 0), (2.0, 1), (3.0, 3)])
    def test_chunked_equals_one_pass(self, q, n, chunk, monkeypatch):
        inst = MeanInstance(5, 32, 10)
        runs = 250  # 7 does not divide it
        want = self.one_pass(inst, q, n, runs, seed=77)
        monkeypatch.setattr(sampler, "_CHUNK_RUNS", chunk)
        run = empirical_repetition_error(inst, q, n, runs, seed=77)
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


class TestPinnedStreams:
    """Exact bits of the sampler's results, so a change in how draws are
    buffered, converted or reduced cannot move them."""

    @pytest.mark.parametrize(
        "k, N, M, q, n, runs, seed, mean_hex, se_hex",
        [
            # a million medians of 7
            (37, 1000, 50, 1.0, 3, 10**6, 11, "0x1.ef00eb9ce6950p-10", "0x1.16e614e97f7bdp-25"),
            (100, 1000, 40, 2.0, 1, 10**5, 12345, "0x1.5300e036ed430p-8", "0x1.2c9cfa40da839p-20"),
            (5, 64, 9, 3.0, 0, 50001, 2**61, "0x1.c8d1d924eeba5p-3", "0x1.5862f6fdd9be8p-12"),
            (1, 2, 22, 1.5, 2, 7777, 3, "0x1.2ebfd9f7b1733p-4", "0x1.f8823ac8ac4cep-14"),
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
