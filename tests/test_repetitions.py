import itertools
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qsum import distribution
from qsum.errors import DomainError
from qsum.model import MeanInstance, derive_angles, random_instances
from qsum.distribution import (
    OutputDistribution,
    _block_median_errors,
    collapse_outputs,
    outcome_distribution,
)
from qsum.error_analysis import local_avg_error, local_sup_error
from qsum.numerics import median_cdf_table
from qsum.repetitions import (
    REPS_GRID_COUNT,
    check_repetition_theorem,
    median_distribution,
    repetition_error,
)
from qsum import sweep
from qsum.sampler import empirical_repetition_error, exact_standard_error
from qsum.sweep import GridSpec, default_grid, sharpness_instances, worst_avg_error


def brute_force_median(alphas, rhos, n):
    """Enumerate all (2n+1)-tuples of atoms and bin the median's mass."""
    masses = {float(a): 0.0 for a in alphas}
    for combo in itertools.product(range(len(alphas)), repeat=2 * n + 1):
        prob = 1.0
        for i in combo:
            prob *= rhos[i]
        med = sorted(alphas[i] for i in combo)[n]
        masses[float(med)] += prob
    return masses


def synthetic_base(alphas, rhos):
    inst = MeanInstance(1, 3, 4)  # any nonintegral-sigma carrier
    ang = derive_angles(inst)
    alphas = np.asarray(alphas, dtype=float)
    rhos = np.asarray(rhos, dtype=float)
    below = np.concatenate(([0.0], np.cumsum(rhos)[:-1]))
    return OutputDistribution(alphas, rhos, below, inst, ang)


class TestMedianDistribution:
    def test_n0_identity(self):
        base = collapse_outputs(outcome_distribution(MeanInstance(8, 8, 3)))
        med = median_distribution(base, 0)
        np.testing.assert_allclose(med.rhos, base.rhos, atol=1e-15)
        np.testing.assert_array_equal(med.alphas, base.alphas)

    def test_single_atom(self):
        base = collapse_outputs(outcome_distribution(MeanInstance(4, 8, 4)))
        med = median_distribution(base, 5)
        assert med.atoms == [(0.5, 1.0)]

    def test_symmetric_two_atoms_fixed_point(self):
        base = synthetic_base([0.0, 1.0], [0.5, 0.5])
        med = median_distribution(base, 1)
        np.testing.assert_allclose(med.rhos, [0.5, 0.5], atol=1e-15)

    def test_full_mean_M3_hand_value(self):
        # median of three draws lands at 0 iff at least two of 3 do:
        # 3 (1/9)^2 (8/9) + (1/9)^3 = 25/729
        base = collapse_outputs(outcome_distribution(MeanInstance(8, 8, 3)))
        med = median_distribution(base, 1)
        assert med.rhos[0] == pytest.approx(25 / 729, abs=1e-14)
        assert med.rhos[1] == pytest.approx(704 / 729, abs=1e-14)

    def test_mass_conservation(self):
        rng = np.random.default_rng(41)
        for inst in random_instances(rng, 40, m_range=(3, 256)):
            base = collapse_outputs(outcome_distribution(inst))
            for n in (1, 4, 10):
                med = median_distribution(base, n)
                assert abs(med.rhos.sum() - 1.0) <= 1e-10
                assert med.rhos.min() >= -1e-15

    def test_majority_amplification(self):
        # an atom holding > 1/2 mass only gains from repetitions
        base = synthetic_base([0.0, 0.4, 1.0], [0.2, 0.7, 0.1])
        prev = 0.0
        for n in range(7):
            med = median_distribution(base, n)
            assert med.rhos[1] >= prev - 1e-15
            prev = med.rhos[1]

    def test_brute_force_equivalence_small(self):
        rng = np.random.default_rng(42)
        for inst in random_instances(rng, 12, m_range=(3, 5), n_max=2**8):
            base = collapse_outputs(outcome_distribution(inst))
            for n in (0, 1, 2):
                med = median_distribution(base, n)
                want = brute_force_median(base.alphas, base.rhos, n)
                for a, r in med.atoms:
                    assert r == pytest.approx(want[a], abs=1e-12)

    def test_validation(self):
        base = collapse_outputs(outcome_distribution(MeanInstance(8, 8, 3)))
        with pytest.raises(DomainError):
            median_distribution(base, -1)
        with pytest.raises(DomainError):
            median_distribution(base, 65)
        with pytest.raises(DomainError):
            median_distribution(base, 1.5)


class TestRepetitionError:
    def test_n0_matches_local_error(self):
        rng = np.random.default_rng(43)
        for inst in random_instances(rng, 30, m_range=(3, 128)):
            for q in (1.0, 2.0, 3.5):
                assert repetition_error(inst, q, 0) == pytest.approx(
                    local_avg_error(inst, q), abs=1e-12
                )

    def test_n0_keeps_base_atoms(self):
        # CDF differences of the atoms would round them by 3.4e-8 relative here
        inst = MeanInstance(84667, 329873, 1366)
        assert repetition_error(inst, 2.0, 0) == pytest.approx(
            local_avg_error(inst, 2.0), rel=1e-13, abs=0.0
        )

    def test_integral_sigma_zero(self):
        assert repetition_error(MeanInstance(4, 8, 4), 2.0, 3) == 0.0

    def test_full_mean_M3_brute_force(self):
        # enumerate all 27 outcome triples with product probabilities
        inst = MeanInstance(8, 8, 3)
        d = outcome_distribution(inst)
        outputs = [0.0, 0.75, 0.75]
        acc = 0.0
        for combo in itertools.product(range(3), repeat=3):
            prob = d.p[combo[0]] * d.p[combo[1]] * d.p[combo[2]]
            med = sorted(outputs[j] for j in combo)[1]
            acc += prob * abs(1.0 - med)
        assert acc == pytest.approx(67 / 243, abs=1e-14)
        assert repetition_error(inst, 1.0, 1) == pytest.approx(67 / 243, abs=1e-13)

    def test_never_exceeds_sup_error(self):
        rng = np.random.default_rng(44)
        for inst in random_instances(rng, 30, m_range=(3, 128)):
            sup = local_sup_error(inst)
            for n in (0, 2, 5):
                assert repetition_error(inst, 2.0, n) <= sup + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            repetition_error(MeanInstance(8, 8, 3), 0.5, 1)
        with pytest.raises(DomainError):
            repetition_error(MeanInstance(8, 8, 3), math.inf, 1)

    # integral-sigma means: a = 0, a = 1 at even M, a = 1/2 at M = 0 mod 4
    @pytest.mark.parametrize("k, N, M", [(0, 8, 7), (0, 5, 4), (8, 8, 4), (3, 3, 10), (4, 8, 4), (5, 10, 12)])
    @pytest.mark.parametrize("n", [65, -1, True, 2.5])
    def test_n_checked_on_integral_sigma(self, k, N, M, n):
        # the same message as at a mean with a nonintegral sigma
        with pytest.raises(DomainError) as want:
            repetition_error(MeanInstance(3, 7, M), 1.0, n)
        with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
            repetition_error(MeanInstance(k, N, M), 1.0, n)


def _near_integer_means(M: int, rng) -> list[MeanInstance]:
    """Means whose sigma lies 3e-9 on either side of an integer m."""
    N = 2**52
    out = []
    for m in (1, int(rng.integers(1, M // 2 + 1))):
        for delta in (-3e-9, 3e-9):
            a = math.sin(math.pi * (m + delta) / M) ** 2
            out.append(MeanInstance(round(a * N), N, M))
    return out


class TestMeanBaseMemo:
    """repetition_error, exact_standard_error and empirical_repetition_error
    share one memoized base per mean: its outcome distribution, folded atoms
    and median points, each n's median masses and the deviations of the
    most recent q."""

    NS = (0, 1, 2, 3, 8, 32, 64)
    QS = (1.0, 1.5, 2.0, 3.0)

    @staticmethod
    def means() -> list[MeanInstance]:
        rng = np.random.default_rng(19)
        out = []
        for M in (3, 4, 6, 22, 1366, 4096):
            out += random_instances(rng, 3, m_range=(M, M))
            out += [MeanInstance(0, 7, M), MeanInstance(1, 2, M), MeanInstance(9, 9, M)]
            out += [m for m in _near_integer_means(M, rng) if M > 3]
        out.append(MeanInstance(4, 8, 4))  # a = 1/2 with integral sigma
        return list(dict.fromkeys(out))  # distinct, in order

    @staticmethod
    def uncached(inst, q, n) -> float:
        """The boosted sweep's rule: the kernel path, and 0 at integral sigma."""
        if derive_angles(inst).sigma_is_integer:
            return 0.0
        p = outcome_distribution(inst).p[None]
        return float(_block_median_errors(p, np.array([inst.a]), q, n)[0])

    def test_bits_equal_uncached_kernel_path(self):
        means = self.means()
        assert any(derive_angles(i).sigma_is_integer for i in means)
        assert any(0 < derive_angles(i).s < 1e-8 for i in means)
        want = {
            (inst, q, n): self.uncached(inst, q, n).hex()
            for inst in means for q in self.QS for n in self.NS
        }
        distribution._mean_base.cache_clear()
        for inst in means:  # mean-major: one miss per mean, then hits
            for q in self.QS:
                for n in self.NS:
                    assert repetition_error(inst, q, n).hex() == want[inst, q, n]
        info = distribution._mean_base.cache_info()
        assert (info.misses, info.hits) == (len(means), len(want) - len(means))
        distribution._mean_base.cache_clear()
        for n in self.NS:  # n-major: more means than entries, so every call misses
            for q in self.QS:
                for inst in means:
                    assert repetition_error(inst, q, n).hex() == want[inst, q, n]
        info = distribution._mean_base.cache_info()
        assert (info.misses, info.hits) == (len(want), 0)

    def test_exact_standard_error_bits(self):
        # against the median distribution of the collapsed outputs, the
        # uncached path, with exact_standard_error's two-pass variance
        distribution._mean_base.cache_clear()
        for inst in self.means():
            med = {n: median_distribution(collapse_outputs(outcome_distribution(inst)), n) for n in self.NS}
            for q in self.QS:
                for n in self.NS:
                    devs = np.abs(inst.a - med[n].alphas) ** q
                    mean = float(np.dot(med[n].rhos, devs))
                    var = float(np.dot(med[n].rhos, (devs - mean) ** 2))
                    want = math.sqrt(max(var, 0.0) / 1000)
                    assert exact_standard_error(inst, q, n, 1000).hex() == want.hex()

    def test_curve_builds_one_distribution(self, monkeypatch):
        calls = []
        build = distribution.outcome_distribution

        def counted(inst):
            calls.append(inst)
            return build(inst)

        monkeypatch.setattr(distribution, "outcome_distribution", counted)
        distribution._mean_base.cache_clear()
        inst = MeanInstance(84667, 329873, 1366)
        for q in (1.0, 2.0):
            for n in (0, 1, 3, 8, 32, 64):
                repetition_error(inst, q, n)
        assert calls == [inst]
        inst = MeanInstance(3, 7, 13)
        empirical_repetition_error(inst, 2.0, 1, 100, seed=1)
        exact_standard_error(inst, 2.0, 1, 100)
        repetition_error(inst, 2.0, 1)
        assert calls[1:] == [inst]

    def test_bounded_and_read_only(self):
        distribution._mean_base.cache_clear()
        maxsize = distribution._mean_base.cache_info().maxsize
        assert maxsize == 4
        means = self.means()
        for inst in means:
            repetition_error(inst, 2.0, 3)
            assert distribution._mean_base.cache_info().currsize <= maxsize
        for inst in means[-maxsize:]:  # the entries the memo holds
            base = distribution._mean_base(inst)
            assert len(base.points) == 7  # two masks, then the polynomial's five inputs
            # the tail points lie in [0, 1/2]: the reflection mask selects
            # nothing and is None, and so is any other empty mask
            assert base.points[5] is None
            arrays = [base.d.p, base.rhos, *(arr for arr in base.points if arr is not None)]
            if not base.d.angles.sigma_is_integer:
                ((q, devs),) = base.devs
                assert q == 2.0 and devs.shape == (1, inst.M // 2 + 1)
                arrays.append(devs)
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0
        assert distribution._mean_base.cache_info().misses == len(means)

    def test_entry_rows_bounded(self):
        distribution._mean_base.cache_clear()
        inst = MeanInstance(84667, 329873, 1366)
        for q in self.QS:
            for n in range(distribution.MAX_REPETITION_N + 1):
                repetition_error(inst, q, n)
        base = distribution._mean_base(inst)
        # n = 0 is the folded atoms themselves, not a further row
        assert len(base.masses) == distribution.MAX_REPETITION_N + 1
        assert base.masses[0] is base.rhos
        ((q, devs),) = base.devs  # one deviation row, of the last q
        assert q == self.QS[-1] and devs.shape == base.rhos.shape

    def test_curve_builds_deviations_once(self, monkeypatch):
        calls = []
        build = distribution._deviations

        def counted(a, M, q):
            calls.append(q)
            return build(a, M, q)

        monkeypatch.setattr(distribution, "_deviations", counted)
        distribution._mean_base.cache_clear()
        inst = MeanInstance(84667, 329873, 1366)
        for n in (0, 1, 3, 8, 32, 64):
            repetition_error(inst, 2.0, n)
        assert calls == [2.0]
        inst = MeanInstance(3, 7, 13)
        empirical_repetition_error(inst, 2.0, 1, 100, seed=1)
        exact_standard_error(inst, 2.0, 1, 100)
        repetition_error(inst, 2.0, 1)
        repetition_error(inst, 1.0, 1)
        assert calls == [2.0, 2.0, 1.0]

    @staticmethod
    def count_tables(monkeypatch) -> list[int]:
        """The n of every median polynomial pass from here on."""
        calls = []
        poly = distribution._median_poly

        def counted(inputs, n):
            calls.append(n)
            return poly(inputs, n)

        monkeypatch.setattr(distribution, "_median_poly", counted)
        return calls

    def test_curve_one_table_call_per_n(self, monkeypatch):
        calls = self.count_tables(monkeypatch)
        distribution._mean_base.cache_clear()
        inst = MeanInstance(84667, 329873, 1366)
        for q in self.QS:
            for n in self.NS:
                repetition_error(inst, q, n)
        assert calls == [n for n in self.NS if n >= 1]

    def test_standard_error_after_curve_no_table_call(self, monkeypatch):
        distribution._mean_base.cache_clear()
        inst = MeanInstance(3, 7, 13)
        for n in self.NS:
            repetition_error(inst, 2.0, n)
        calls = self.count_tables(monkeypatch)
        for q in self.QS:
            for n in self.NS:
                exact_standard_error(inst, q, n, 1000)
        assert calls == []

    def test_masses_read_only(self):
        distribution._mean_base.cache_clear()
        inst = MeanInstance(84667, 329873, 1366)
        for n in self.NS:
            repetition_error(inst, 1.0, n)
        masses = distribution._mean_base(inst).masses
        assert sorted(masses) == sorted(self.NS)
        for arr in masses.values():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_threads_share_memo_bits(self):
        means = [m for m in self.means() if m.M in (22, 1366)][:10]
        qs = (1.0, 2.0)
        distribution._mean_base.cache_clear()
        want = [
            (repetition_error(inst, q, n).hex(), exact_standard_error(inst, q, n, 1000).hex())
            for inst in means for n in self.NS for q in qs
        ]

        def both(args):
            inst, n, q = args
            return repetition_error(inst, q, n).hex(), exact_standard_error(inst, q, n, 1000).hex()

        distribution._mean_base.cache_clear()
        # mean-major, so the workers race on the same entries and the same
        # n; a short switch interval lets them interleave inside a call
        jobs = [(inst, n, q) for inst in means for n in self.NS for q in qs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(both, jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == want


class TestRepetitionTheorem:
    def test_table_shape_and_n(self):
        rows = check_repetition_theorem(2.0, [6, 22], default_grid(count=100))
        assert [r.M for r in rows] == [6, 22]
        assert all(r.n == 3 for r in rows)
        assert all(r.rep_error_times_m == pytest.approx(r.worst_rep_error * r.M) for r in rows)

    def test_boosted_error_below_base(self):
        rows = check_repetition_theorem(2.0, [22, 86], default_grid(count=200))
        for r in rows:
            assert r.worst_rep_error <= r.worst_base_error + 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            check_repetition_theorem(2.0, [])
        with pytest.raises(DomainError):
            check_repetition_theorem(2.0, [6, 5])
        with pytest.raises(DomainError):
            check_repetition_theorem(math.inf, [6])


class TestNearerTailMasses:
    """Boosted errors against a 40-digit evaluation of the same closed form.

    The median masses read each atom boundary from its nearer tail, so the
    differences above the median no longer cancel between two values near
    1.  Left-cumsum differences were 2.1e-5 off on (1, 2, 1366, 5, 6).
    """

    @staticmethod
    def reference(k, N, M, q, n):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        a = mp.mpf(k) / N
        sigma = M * mp.asin(mp.sqrt(a)) / mp.pi
        amp = mp.sin(mp.pi * sigma) ** 2 / (2 * M * M)
        p = [
            amp * (mp.sin(mp.pi * (j - sigma) / M) ** -2 + mp.sin(mp.pi * (j + sigma) / M) ** -2)
            for j in range(M)
        ]
        m = 2 * n + 1

        def cdf(x):
            return mp.fsum(math.comb(m, i) * x**i * (1 - x) ** (m - i) for i in range(n + 1, m + 1))

        total, below, i_below = mp.mpf(0), mp.mpf(0), mp.mpf(0)
        for j in range(M // 2 + 1):
            below += p[j] + (p[M - j] if 0 < j < M - j else 0)
            i_next = cdf(below)
            total += (i_next - i_below) * abs(a - mp.sin(mp.pi * j / M) ** 2) ** q
            i_below = i_next
        return total ** (1 / mp.mpf(q))

    @pytest.mark.parametrize(
        "case, tol",
        [
            ((1, 2, 342, 3.0, 4), 1e-13),
            ((1, 2, 1366, 3.0, 4), 1e-13),
            ((1, 2, 1366, 5.0, 6), 1e-13),
            ((3, 7, 2000, 4.0, 5), 1e-13),
            # the float angles of this mean already put its n = 0 error
            # 1.0e-11 off: the base distribution sets this floor
            ((84667, 329873, 1366, 2.0, 3), 5e-11),
        ],
    )
    def test_against_mpmath(self, case, tol):
        k, N, M, q, n = case
        ref = self.reference(*case)
        got = repetition_error(MeanInstance(k, N, M), q, n)
        assert abs(got - ref) <= tol * ref, (got, float(ref))

    @pytest.mark.parametrize("n", [1, 64])
    def test_masses_sum_to_one(self, n):
        rng = np.random.default_rng(1366 + n)
        for inst in [MeanInstance(1, 2, 1366)] + random_instances(rng, 4, m_range=(1366, 1366)):
            rhos = median_distribution(collapse_outputs(outcome_distribution(inst)), n).rhos
            assert abs(rhos.sum() - 1.0) <= 1e-13
            assert rhos.min() >= 0.0

    def test_masses_not_negative(self):
        # two rounded far-tail values differ by -2.4e-291 at three atoms of
        # this mean; the masses are clipped at 0, and nothing else moves
        inst = MeanInstance(193605, 221306, 1790)
        base = distribution._mean_base(inst)
        rhos = base.rhos[0]
        left = np.concatenate(([0.0], np.cumsum(rhos)))
        right = np.concatenate((np.cumsum(rhos[::-1])[::-1], [0.0]))
        far = left > 0.5
        tails = median_cdf_table(np.where(far, right, left), 64)
        np.negative(tails, out=tails, where=far)
        raw = np.diff(tails)
        raw[np.flatnonzero(far)[0] - 1] += 1.0  # the atom at the switch
        assert np.flatnonzero(raw < 0.0).tolist() == [474, 475, 478]
        masses = distribution._median_step(base.rhos, base.points, 64)[0]
        assert np.array_equal(masses, np.maximum(raw, 0.0))
        rhos = median_distribution(collapse_outputs(base.d), 64).rhos
        assert rhos.min() == 0.0 and np.array_equal(rhos, masses)
        assert exact_standard_error(inst, 1.0, 64, 10) > 0.0


class TestTheoremOnePass:
    """Both columns of the repetition theorem, each from a screened sweep,
    equal to the two sweeps they replace and to a pass over every mean."""

    GRID = default_grid(count=300)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("M", [6, 22, 86, 342])
    def test_columns_equal_sweeps(self, q, M):
        (row,) = check_repetition_theorem(q, [M], self.GRID)
        # the grid plus the sharpness means, as the benchmark's rows build it
        ks = sorted(self.GRID.ks + tuple(i.k for i in sharpness_instances(M, self.GRID.N)))
        grid = GridSpec(self.GRID.N, tuple(ks), "grid + sharpness")
        base = worst_avg_error(M, q, grid)
        rep = worst_avg_error(M, q, grid, n_reps=row.n)
        assert row.worst_base_error == base.worst_error
        assert row.worst_rep_error == rep.worst_error

    @pytest.mark.parametrize("q", [1.0, 2.0])
    @pytest.mark.parametrize("M", [6, 22, 86, 342])
    def test_columns_equal_full_pass(self, q, M):
        (row,) = check_repetition_theorem(q, [M], self.GRID)
        means = sweep._sweep_means(M, self.GRID, True)[1]
        assert row.worst_base_error == sweep._grid_errors(M, q, means, 0).max()
        assert row.worst_rep_error == sweep._grid_errors(M, q, means, row.n).max()

    def test_kernel_sees_few_means(self, monkeypatch):
        # on the theorem's default grid of about 2000 means, as measured:
        # a few means per column at M = 86 and 342; at M = 22 the bound has
        # more columns than the median step, so the boosted column runs
        # every mean
        calls = []
        kernel = sweep._block_errors

        def counted(*args):
            calls.append(len(args[2]))
            return kernel(*args)

        monkeypatch.setattr(sweep, "_block_errors", counted)
        means = REPS_GRID_COUNT + 1
        cases = ((1.0, 86, 8), (2.0, 86, 8), (1.0, 342, 8), (2.0, 342, 8), (2.0, 22, means + 8))
        for q, M, most in cases:
            calls.clear()
            check_repetition_theorem(q, [M])
            assert sum(calls) <= most, (q, M, sum(calls))
            if M == 22:
                assert sum(calls) >= means
