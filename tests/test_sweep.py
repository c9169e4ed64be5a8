import functools
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qsum import bounds, model, sweep
from qsum.distribution import (
    _block_errors,
    _block_median_errors,
    collapse_outputs,
    outcome_distribution,
)
from qsum.errors import ConsistencyError, DomainError
from qsum.model import MeanInstance, _block_angles, derive_angles
from qsum.error_analysis import L1_SLACK_CONSTANT, local_avg_error
from qsum.repetitions import (
    REPS_GRID_COUNT,
    check_repetition_theorem,
    median_distribution,
    repetition_error,
)
from qsum.sweep import (
    GridSpec,
    SweepResult,
    asymptotic_table,
    default_grid,
    sharpness_instances,
    worst_avg_error,
)


def _plus_sharpness(grid: GridSpec, M: int) -> GridSpec:
    """The grid's ks plus the sharpness means' ks at its N, as one GridSpec
    (as the benchmark's sweep rows build theirs)."""
    ks = sorted(grid.ks + tuple(inst.k for inst in sharpness_instances(M, grid.N)))
    return GridSpec(grid.N, tuple(ks), f"{grid.label} + sharpness")


def _sweep_with_sharpness(M: int, q: float, grid: GridSpec, n_reps: int = 0) -> SweepResult:
    """A screened sweep over the grid plus the sharpness means at N = 2^20,
    whatever the grid's N: the means of a repetition-theorem column."""
    label, means = sweep._sweep_means(M, grid, True)
    i, e = sweep._screened_max(M, q, means, n_reps)
    return SweepResult(M, q, n_reps, float(e), int(means[0][i]), int(means[1][i]), label)


class TestSharpnessInstances:
    def test_two_mod_four_includes_half(self):
        insts = sharpness_instances(6)
        assert MeanInstance(2**19, 2**20, 6) in insts

    def test_generic_construction(self):
        insts = sharpness_instances(10)
        want = round(math.sin(math.pi / 4 + math.pi / 50) ** 2 * 2**20)
        assert insts[0] == MeanInstance(want, 2**20, 10)

    def test_half_omitted_when_not_two_mod_four(self):
        insts = sharpness_instances(7)
        assert len(insts) == 1
        assert insts[0].k != 2**19

    def test_half_instance_attains_unit_factor(self):
        # s = 1/2 and theta = pi/4 make the leading factor exactly 1
        ang = derive_angles(MeanInstance(2**19, 2**20, 6))
        assert ang.s == 0.5 and ang.theta == math.pi / 4

    def test_validation(self):
        with pytest.raises(DomainError):
            sharpness_instances(2)


class TestWorstAvgError:
    def test_explicit_single_point_grid(self):
        # mean 1/2 at M = 4 has integral sigma: worst error 0
        grid = GridSpec(8, (4,), "half only")
        r = worst_avg_error(4, 1.0, grid)
        assert r.worst_error == 0.0
        assert (r.argmax_k, r.argmax_N) == (4, 8)

    def test_default_sweep_hits_half_region(self):
        r = worst_avg_error(6, 1.0)
        assert (r.argmax_k, r.argmax_N) == (2**19, 2**20)
        floor = (2 / math.pi) * math.log(6) / 6 - (
            3 * math.pi + 2 + math.log(math.pi**2)
        ) / (6 * math.pi)
        assert r.worst_error >= floor

    def test_result_recomputes(self):
        grid = default_grid(count=200)
        r = worst_avg_error(11, 2.0, grid)
        again = local_avg_error(MeanInstance(r.argmax_k, r.argmax_N, r.M), 2.0)
        assert abs(r.worst_error - again) <= 1e-12

    def test_sharpness_injection_never_lowers(self):
        grid = default_grid(count=50)
        bare = worst_avg_error(10, 1.0, grid)
        augmented = worst_avg_error(10, 1.0, _plus_sharpness(grid, 10))
        assert augmented.worst_error >= bare.worst_error

    def test_grid_refinement_monotone(self):
        coarse = default_grid(count=50)
        fine = GridSpec(
            coarse.N,
            tuple(sorted(set(coarse.ks) | set(default_grid(count=400).ks))),
            "refined",
        )
        lo = worst_avg_error(17, 1.5, coarse)
        hi = worst_avg_error(17, 1.5, fine)
        assert hi.worst_error >= lo.worst_error

    def test_tie_break_smallest_k(self):
        # both grid means have integral sigma, so errors tie at zero
        grid = GridSpec(16, (16, 0), "degenerate ties")
        r = worst_avg_error(4, 1.0, grid)
        assert r.argmax_k == 0

    def test_default_sweep_not_two_mod_four(self):
        # for M = 2 mod 4 the injected mean 1/2 always wins; here a grid
        # mean does, and the q = 1 constant still sits in its envelope
        M = 1053
        r = worst_avg_error(M, 1.0)
        assert (r.argmax_k, r.argmax_N) == (525075, 2**20)
        assert r.worst_error == pytest.approx(0.004702403399654803, rel=1e-13)
        assert all(r.argmax_k != inst.k for inst in sharpness_instances(M))
        c = r.worst_error * M / math.log(M)
        assert abs(c - 2 / math.pi) <= L1_SLACK_CONSTANT / math.log(M)

    @pytest.mark.parametrize("M", [6, 22, 86, 342, 1366])
    def test_q2_half_mean_identity(self, M):
        # at M = 2 mod 4 the worst q = 2 error sits at a = 1/2, where
        # e * sqrt(M) = 1/sqrt(2)
        r = worst_avg_error(M, 2.0, _plus_sharpness(default_grid(count=500), M))
        assert (r.argmax_k, r.argmax_N) == (2**19, 2**20)
        assert abs(r.worst_error * math.sqrt(M) - 1 / math.sqrt(2)) <= 1e-12

    def test_sweep_leaves_numpy_ma_unloaded(self):
        # a fresh interpreter: np.unique and np.median import numpy.ma, and
        # no sweep or repetition-theorem path needs it
        env = dict(os.environ)
        src = str(Path(sweep.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from qsum.sweep import worst_avg_error\n"
            "from qsum.repetitions import check_repetition_theorem\n"
            "worst_avg_error(6, 1.0)\n"
            "check_repetition_theorem(2.0, [6])\n"
            "sys.exit('numpy.ma' in sys.modules)"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_validation(self):
        with pytest.raises(DomainError):
            worst_avg_error(2, 1.0)
        with pytest.raises(DomainError):
            worst_avg_error(12, 1.0, GridSpec(8, (1,), "N too small"))
        with pytest.raises(DomainError):
            GridSpec(8, (), "empty")


class TestDefaultGridMemo:
    def test_built_once_per_arguments(self):
        sweep.default_grid.cache_clear()
        for _ in range(3):
            check_repetition_theorem(2.0, [6, 22])
        info = sweep.default_grid.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert default_grid(count=REPS_GRID_COUNT) is default_grid(count=REPS_GRID_COUNT)

    def test_same_grid_as_unmemoized(self):
        build = sweep.default_grid.__wrapped__
        for args in ((), (4096, 64), (2**20, 2000), (10, 50, True)):
            assert default_grid(*args) == build(*args)
        # an int64 N keeps its type rather than sharing the int N's entry
        assert type(default_grid(np.int64(4096), 64).N) is np.int64
        assert type(default_grid(4096, 64).N) is int


class TestGridLimit:
    @pytest.mark.parametrize("N", [2**53 + 1, 2**64 - 1, 2**70])
    def test_grid_n_above_2_53_is_a_domain_error(self, N):
        # past 2^53 the means k/N are no longer distinct doubles, and numpy
        # holds such ks as floats or objects, or overflows building them
        with pytest.raises(DomainError, match=rf"^grid N must lie in \[1, {2**53}\], got {N}$"):
            GridSpec(N, (0, 1, N), "too fine")
        with pytest.raises(DomainError, match=rf"^grid N must lie in \[2, {2**53}\], got {N}$"):
            default_grid(N, 50)

    def test_non_integer_grid_is_a_domain_error(self):
        # an int64 k array would truncate a float k to another mean
        with pytest.raises(DomainError, match="^grid k must be an integer, got 300.9$"):
            GridSpec(1024, (100, 300.9), "float k")
        with pytest.raises(DomainError, match="must be an integer"):
            GridSpec(1024.0, (100,), "float N")

    @pytest.mark.parametrize("k", [True, False, np.True_, 2.0, np.float64(2.0), 2.5], ids=repr)
    def test_grid_k_follows_the_integer_rule(self, k):
        # checked at construction, each k, whatever its place in the tuple
        for ks in ((k, 3, 5), (0, 3, k), (0, np.int64(3), k)):
            with pytest.raises(DomainError, match=f"^grid k must be an integer, got {re.escape(repr(k))}$"):
                GridSpec(8, ks, "x")

    def test_grid_k_numpy_integers_accepted(self):
        ks = (0, np.int32(3), np.uint64(5), np.int64(8))
        want = worst_avg_error(6, 1.0, GridSpec(8, (0, 3, 5, 8), "x"))
        assert worst_avg_error(6, 1.0, GridSpec(8, ks, "x")) == want

    def test_grid_ks_kept_as_a_tuple(self):
        # an array of ks was a truth-value ValueError, and a list left the
        # frozen grid mutable and unhashable
        want = GridSpec(8, (0, 4, 8), "x")
        for ks in (np.array([0, 4, 8], dtype=np.int64), [0, 4, 8], range(0, 9, 4)):
            grid = GridSpec(8, ks, "x")
            assert type(grid.ks) is tuple
            assert grid == want and hash(grid) == hash(want)
            assert worst_avg_error(6, 1.0, grid) == worst_avg_error(6, 1.0, want)
        assert GridSpec(8, want.ks, "x").ks is want.ks  # a tuple is not copied
        with pytest.raises(DomainError, match="^grid must have at least one k$"):
            GridSpec(8, np.array([], dtype=np.int64), "x")


def _reference_means(M: int, grid: GridSpec, include_sharpness: bool):
    """A sweep's means built one at a time: sorted (k, N) tuples, Python's
    k / N and derive_angles per mean."""
    means = [(k, grid.N) for k in grid.ks]
    if include_sharpness:
        means += [(inst.k, inst.N) for inst in sharpness_instances(M)]
    means.sort()
    angs = [derive_angles(MeanInstance(k, N, M)) for k, N in means]
    return (
        np.array([k for k, _ in means]),
        np.array([N for _, N in means]),
        np.array([k / N for k, N in means]),
        np.array([ang.sigma for ang in angs]),
        np.array([ang.s for ang in angs]),
        np.array([ang.sigma_is_integer for ang in angs]),
    )


class TestSweepMeans:
    """The array set-up of a sweep against the one-mean-at-a-time one."""

    @staticmethod
    def grids(M):
        sharp = [inst.k for inst in sharpness_instances(M)]
        yield default_grid(), True
        yield GridSpec(2**20, (7, 3, 2**19, 7, 0, 2**20, 3), "unsorted, duplicates"), True
        # other N: the sharpness means (N = 2^20) interleave by (k, N), and
        # share their k with a grid mean before (3 * 2^18) or after (2^21)
        for N in (3 * 2**18, 2**21):
            ks = set(np.linspace(0, N, 700).round().astype(int).tolist())
            yield GridSpec(N, tuple(sorted(ks | set(sharp))), f"k/{N}"), True
        # N = 2^53 with the exact means and sigma on both sides of INTEGER_TOL
        N = 2**53
        ks = {0, 1, N // 4, N // 2, N - 1, N} | set(default_grid(N, 500).ks)
        for m in {1, M // 3, M // 2 - 1}:
            for t in (0.0, 3e-10, -9e-10, 9.9e-10, 1.1e-9, -1.5e-9, 4e-9):
                ks.add(round(math.sin(math.pi * (m + t) / M) ** 2 * N))
        yield GridSpec(N, tuple(sorted(ks)), "k/2^53"), False

    @pytest.mark.parametrize("M", [3, 6, 1053, 4096])
    def test_bit_identical_to_one_mean_at_a_time(self, M):
        near_tol = [False, False]  # sigma within, just outside INTEGER_TOL
        for grid, sharp in self.grids(M):
            label, got = sweep._sweep_means(M, grid, sharp)
            want = _reference_means(M, grid, sharp)
            assert label == grid.label + " + sharpness" * sharp
            for name, g, w in zip(("ks", "Ns", "a", "sigma", "s", "integral"), got, want):
                # bit for bit, zeros' signs included
                assert (g.dtype, g.tobytes()) == (w.dtype, w.tobytes()), (grid.label, name)
            sigma = M * np.array([math.asin(math.sqrt(a)) for a in want[2]]) / math.pi
            offset = np.abs(sigma - np.round(sigma))  # before the snap
            near_tol[0] |= bool(((offset > 0) & want[5]).any())
            near_tol[1] |= bool(((offset < 2e-9) & ~want[5]).any())
        assert near_tol == [True, True]


def _reference_error(inst: MeanInstance, q: float) -> float:
    """The closed form for one instance, written out independently of the
    block kernel: both csc^2 factors from distances folded into [0, M/2],
    each built from a subtraction that is exact when it is small."""
    ang = derive_angles(inst)
    if ang.sigma_is_integer:
        return 0.0
    M = inst.M
    j = np.arange(M, dtype=float)

    def folded_sin(x):
        x = np.abs(x)
        return np.sin(np.pi * np.minimum(x, M - x) / M)

    f1 = folded_sin(j - ang.sigma)
    f2 = folded_sin(np.where(j == 0, ang.sigma, (j - M) + ang.sigma))
    p = math.sin(math.pi * ang.s) ** 2 / (2.0 * M * M) * (f1**-2.0 + f2**-2.0)
    p /= p.sum()
    err = f1 * f2
    if math.isinf(q):
        return float(err[p > 1e-14].max())
    return float(np.dot(p, err**q) ** (1.0 / q))


class TestBlockKernel:
    N = 2**21

    def grid(self, M):
        N = self.N
        # extremes, means integral for some M (1/4, 1/2, 3/4, 1), a coarse
        # grid, and the sharpness mean again at N = 2^21 (an exact tie)
        ks = {0, 1, N // 4, N // 2, 3 * N // 4, N - 1, N}
        ks |= {int(k) for k in np.linspace(0, N, 41).round()}
        ks |= {2 * inst.k for inst in sharpness_instances(M)}
        return GridSpec(N, tuple(sorted(ks)), "kernel test")

    @pytest.mark.parametrize("block", [sweep.BLOCK_ELEMENTS, 50])
    @pytest.mark.parametrize("M", [3, 4, 6, 7, 1024, 1053])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, math.inf])
    def test_matches_per_instance_loop(self, q, M, block, monkeypatch):
        grid = self.grid(M)
        candidates = [MeanInstance(k, grid.N, M) for k in grid.ks]
        candidates += sharpness_instances(M)
        candidates.sort(key=lambda inst: (inst.k, inst.N))
        want = [_reference_error(inst, q) for inst in candidates]
        angs = [derive_angles(i) for i in candidates]
        got = _block_errors(
            M,
            q,
            np.array([a.sigma for a in angs]),
            np.array([a.s for a in angs]),
            np.array([a.sigma_is_integer for a in angs]),
            [i.k for i in candidates],
            [i.N for i in candidates],
        )[0]
        for inst, g, w in zip(candidates, got, want):
            assert abs(g - w) <= 1e-13 * max(abs(w), abs(g)), (inst, g, w)

        monkeypatch.setattr(sweep, "BLOCK_ELEMENTS", block)
        if block == 50:
            assert len(candidates) * M > block  # more rows than one block
        r = _sweep_with_sharpness(M, q, grid)
        first = int(np.argmax(got))
        assert (r.argmax_k, r.argmax_N) == (candidates[first].k, candidates[first].N)
        assert r.worst_error == got[first]
        # the reference's argmax, unless its maximum is a tie at rounding
        # level (at q = 2 the error depends on s alone, and the means 1/4
        # and 1 at M = 1053 have s = 1/2 - 3e-14 and 1/2)
        top = max(want)
        near = [i for i, w in enumerate(want) if w >= top * (1.0 - 1e-13)]
        assert first in near
        assert abs(r.worst_error - top) <= 1e-13 * top

    def test_tie_goes_to_smallest_k(self):
        # mean 1/2 at N = 2^20 (injected) and at N = 2^21 (grid) are the
        # same instance and the M = 6 maximum: the smaller k wins
        r = _sweep_with_sharpness(6, 1.0, self.grid(6))
        assert (r.argmax_k, r.argmax_N) == (2**19, 2**20)


def _kernel_errors(M, q, ks, Ns):
    """Errors of the means ks[i]/Ns[i] from one kernel pass over all of
    them, with the angles (sigma, s, integral)."""
    sigma, s, integral = _block_angles(ks, Ns, [k / N for k, N in zip(ks, Ns)], M)
    return _block_errors(M, q, sigma, s, integral, ks, Ns)[0], sigma, s, integral


class TestErrorBounds:
    """The screen's per-mean bound U against the kernel."""

    N = 2**52
    QS = [1.0, 1.25, 1.5, 2.0, 3.0, 5.0, math.inf]
    MS = [3, 4, 5, 6, 7, 22, 1053, 1366, 10**4] + np.random.default_rng(11).integers(
        8, 10**4, 5
    ).tolist()

    def means(self, M):
        N = self.N
        rng = np.random.default_rng(M)
        ks = set(rng.integers(0, N + 1, 30).tolist())
        ks |= {1, N // 2, N - 1, N}  # a = 1/2, and a = 1 at odd and even M
        sigmas = [1 + 5e-9, M // 3 + 3e-9, M // 2 - 2e-9]
        # sigma just off an integer on both sides, where cot(pi u) is a pole
        sigmas += [m + d for m in (1, M // 5, M // 2 - 1) for d in (-3e-9, 3e-9)]
        # near M/4, where the zero of the cotangent sum crosses pi/2
        sigmas += [M / 4 + d for d in (-1e-3, -1e-6, 1e-6, 1e-3)]
        sigmas.append(M // 3)  # integral: the error and U are exactly 0
        ks |= {round(math.sin(math.pi * x / M) ** 2 * N) for x in sigmas if 0 < x < M / 2}
        return sorted(ks)

    @pytest.mark.parametrize("M", MS)
    def test_kernel_within_bound(self, M):
        ks = self.means(M)
        Ns = [self.N] * len(ks)
        a = np.array(ks) / self.N
        _, sigma, s, integral = _kernel_errors(M, 1.0, ks, Ns)
        near = (s < 1e-8) & ~integral
        assert near.sum() >= 2  # s within 1e-8 of 0, not snapped
        assert integral.any()
        live = ~integral
        for q in self.QS:
            e = _kernel_errors(M, q, ks, Ns)[0]
            with warnings.catch_warnings():  # integral rows included in the entry
                warnings.simplefilter("error", RuntimeWarning)
                u = bounds.error_bounds(M, q, 0, a, sigma, s, integral)
                direct = bounds._error_bounds(M, q, a[live], sigma[live], s[live])
            assert (u[live] == direct).all(), q  # the bound itself, on its rows
            assert (e <= u * (1.0 + sweep._SCREEN_MARGIN)).all(), q
            assert (u[integral] == 0.0).all() and (e[integral] == 0.0).all()
            if q == 2.0:
                # the q = 2 identity e_2 = |sin(pi s)| / sqrt(2 M)
                np.testing.assert_array_less(np.abs(e - u), 1e-14 * u + 1e-300)
            if q == 1.0:
                # the sign-split cotangent sum: within 0.3% of the kernel,
                # and exact up to M = 6, where no term is bounded
                tol = 1e-14 if M <= 6 else 3e-3
                assert (u[~integral] <= (1.0 + tol) * e[~integral]).all()
            if q == 1.0 and M % 2:
                # a = 1 at odd M: e_1 = 1/M, the bound is attained
                assert e[-1] == pytest.approx(1.0 / M, rel=1e-14)
                assert u[-1] == pytest.approx(1.0 / M, rel=1e-14)


class TestMedianErrorBounds:
    """The boosted screen's per-mean bound U against the kernel's e_n."""

    N = 2**52
    NS = (1, 2, 3, 8, 64)
    QS = (1.0, 1.5, 2.0, 3.0)
    MS = [3, 4, 5, 6, 7, 8, 9, 22, 23, 86, 342, 1053, 4097, 10**4] + np.random.default_rng(
        12
    ).integers(10, 10**4, 3).tolist()

    def means(self, M):
        ks = set(TestErrorBounds.means(self, M))
        # half-integral sigma, where the worst cases sit
        half = [m + 0.5 for m in (0, 1, M // 5, M // 3, M // 2 - 1) if m + 0.5 < M / 2]
        ks |= {round(math.sin(math.pi * x / M) ** 2 * self.N) for x in half}
        return sorted(ks)

    @pytest.mark.parametrize("M", MS)
    def test_kernel_within_bound(self, M):
        ks = self.means(M)
        Ns = [self.N] * len(ks)
        a = np.array(ks) / self.N
        sigma, s, integral = _block_angles(ks, Ns, a, M)
        near = np.abs(sigma - np.round(sigma)) < 1e-8
        assert integral.any() and (near & ~integral).sum() >= 2
        # the kernel pass and its median step, as a boosted sweep takes them
        p = _block_errors(M, None, sigma, s, integral, ks, Ns)[1]
        live = ~integral
        for q in self.QS:
            for n in self.NS:
                e = _block_median_errors(p, a, q, n)[live]
                with warnings.catch_warnings():  # both ends included
                    warnings.simplefilter("error", RuntimeWarning)
                    u = bounds._median_error_bounds(M, q, n, a[live], sigma[live], s[live])
                    entry = bounds.error_bounds(M, q, n, a, sigma, s, integral)
                assert (e <= u * (1.0 + sweep._SCREEN_MARGIN)).all(), (q, n)
                if entry is not None:  # integral rows included
                    assert (entry[live] == u).all() and (entry[integral] == 0.0).all()
                # exact where every atom is in the windows (M <= 7), and
                # where the median sits on the atom next to sigma: there e_n
                # is |alpha - a| at the table's output, to rounding
                exact = ((M <= 7) | (near & (n == 64)))[live]
                np.testing.assert_allclose(u[exact], e[exact], rtol=1e-12, atol=0.0)

    def test_offsets(self):
        # the window, then breakpoints growing by 1.5 up to floor(M/2)
        assert bounds._bound_offsets(6).tolist() == [0, 1, 2, 3]
        assert bounds._bound_offsets(86).tolist() == [0, 1, 2, 3, 4, 6, 9, 14, 21, 32]

    def test_entry_gives_none_where_the_bound_costs_as_much_as_the_kernel(self):
        # more columns than the median step's floor(M/2) + 1: at every
        # n >= 1 for M in [3, 29] but 26 and 27, and never unboosted
        a = np.array([0.3])
        for M in range(3, 200):
            angles = _block_angles([3], [10], a, M)
            none = [bounds.error_bounds(M, 2.0, n, a, *angles) is None for n in (0, 1, 64)]
            want = M <= 29 and M not in (26, 27)
            assert none == [False, want, want], M


class TestBoostedScreen:
    """The screened boosted sweep against a kernel pass over every mean:
    value, argmax and tie bit for bit."""

    GRID = default_grid(count=300)

    @staticmethod
    def full_pass(M, q, n, grid, sharp):
        """Argmax k, N and value of a plain pass over every mean."""
        means = sweep._sweep_means(M, grid, sharp)[1]
        errors = sweep._grid_errors(M, q, means, n)
        i = int(np.argmax(errors))
        return errors[i], int(means[0][i]), int(means[1][i])

    @pytest.mark.parametrize("M, sharp", [(26, True), (40, False), (86, True), (86, False), (342, True)])
    def test_equals_full_pass(self, M, sharp, monkeypatch):
        monkeypatch.setattr(sweep, "BLOCK_ELEMENTS", 2**12)  # several blocks
        grid = _plus_sharpness(self.GRID, M) if sharp else self.GRID
        for q in (1.0, 1.5, 2.0, 3.0):
            for n in (1, 2, 3, 8, 16, 32, 64):  # from 16 on, the blocked pass
                r = worst_avg_error(M, q, grid, n_reps=n)
                want = self.full_pass(M, q, n, self.GRID, sharp)
                assert (r.worst_error, r.argmax_k, r.argmax_N) == want, (q, n)

    @pytest.mark.parametrize("q, n", [(1.0, 1), (1.0, 3), (2.0, 1), (2.0, 3)])
    def test_mirror_tie(self, q, n, monkeypatch):
        # the mirror means 522535 and 526041 on 2^20 tie at M = 22, to the
        # bit or within one ulp; a bound with one tail block screens there,
        # and both are kept, so rounding picks the argmax as in a full pass
        monkeypatch.setattr(bounds, "_bound_offsets", lambda M: np.arange(5))
        want = self.full_pass(22, q, n, self.GRID, False)
        assert want[1] in (522535, 526041)
        means = sweep._sweep_means(22, self.GRID, False)[1]
        tie = sweep._grid_errors(22, q, means, n)[np.isin(means[0], (522535, 526041))]
        assert abs(tie[0] - tie[1]) <= math.ulp(tie[0])
        calls = _counted_kernel(monkeypatch)
        r = worst_avg_error(22, q, self.GRID, n_reps=n)
        assert (r.worst_error, r.argmax_k, r.argmax_N) == want
        assert sum(calls) < len(self.GRID.ks) // 10  # screened, not a full pass

    @pytest.mark.parametrize("n_reps", [1.5, True, 65, -1])
    def test_n_checked_before_screening(self, n_reps, monkeypatch):
        def bound(*args):
            raise AssertionError("screened an invalid n")

        monkeypatch.setattr(bounds, "_median_error_bounds", bound)
        calls = _counted_kernel(monkeypatch)
        with pytest.raises(DomainError):
            worst_avg_error(86, 2.0, self.GRID, n_reps=n_reps)
        assert calls == []


def _even_q_error(inst: MeanInstance, q: int) -> float:
    """The local L_q error at even q < M in closed form: e_q^q =
    sin^2(pi s) G_q(theta) / M, with G_q = -4 sum_{r=1..q} r f_r cos(2 r
    theta) and f_r the r-th Fourier coefficient of ((cos phi - cos 2
    theta)/2)^q, a trig polynomial of degree q, so an FFT on 4 q + 4
    points gives its coefficients exactly."""
    ang = derive_angles(inst)
    n = 4 * q + 4
    phi = 2.0 * np.pi * np.arange(n) / n
    f = np.fft.rfft(((np.cos(phi) - math.cos(2.0 * ang.theta)) / 2.0) ** q).real / n
    r = np.arange(1, q + 1)
    g = -4.0 * np.dot(r * f[1 : q + 1], np.cos(2.0 * r * ang.theta))
    return (math.sin(math.pi * ang.s) ** 2 * g / inst.M) ** (1.0 / q)


class TestEvenQClosedForm:
    """The kernel against the even-q identity, up to M = 10^4."""

    N = 2**52

    def means(self, rng, M, count):
        N = self.N
        ks = {1, N // 4, N // 2, N - 1, N} | set(rng.integers(0, N + 1, count).tolist())
        return [MeanInstance(k, N, M) for k in sorted(ks)]

    @pytest.mark.parametrize("q", [2, 4, 6, 8])
    def test_local_avg_error(self, q):
        rng = np.random.default_rng(q)
        for M in [q + 1, q + 2, 10**4] + rng.integers(q + 1, 10**4, 8).tolist():
            for inst in self.means(rng, M, 20):
                want = _even_q_error(inst, q)
                got = local_avg_error(inst, float(q))
                assert abs(got - want) <= 1e-14 * want, (inst, got, want)

    @pytest.mark.parametrize("q", [2, 4, 6, 8])
    def test_sweep_rows(self, q):
        rng = np.random.default_rng(100 + q)
        for M in [q + 1, 1366, 10**4] + rng.integers(q + 1, 10**4, 3).tolist():
            insts = self.means(rng, M, 300)
            want = max(_even_q_error(inst, q) for inst in insts)
            grid = GridSpec(self.N, tuple(inst.k for inst in insts), "even q")
            r = worst_avg_error(M, float(q), grid)
            assert abs(r.worst_error - want) <= 1e-14 * want, (M, r, want)
            at = _even_q_error(MeanInstance(r.argmax_k, r.argmax_N, M), q)
            assert abs(r.worst_error - at) <= 1e-14 * want, (M, r, at)


@functools.lru_cache(maxsize=None)
def _full_pass(M, q, grid):
    """A plain kernel pass over every mean of a sweep with sharpness
    instances: the means in ascending (k, N) and their errors."""
    means = sorted([(k, grid.N) for k in grid.ks] + [(i.k, i.N) for i in sharpness_instances(M)])
    ks, Ns = zip(*means)
    return ks, Ns, _kernel_errors(M, q, ks, Ns)[0]


def _counted_kernel(monkeypatch):
    """Patch the sweep's kernel to record the rows of each call."""
    calls = []
    kernel = sweep._block_errors

    def counted(*args):
        calls.append(len(args[2]))
        return kernel(*args)

    monkeypatch.setattr(sweep, "_block_errors", counted)
    return calls


class TestScreen:
    """The screened unboosted sweep against a kernel pass over every mean:
    value and argmax equal bit for bit."""

    N = 2**21
    GRID = GridSpec(
        N,
        tuple(sorted({0, 1, N // 4, N // 2, 3 * N // 4, N - 1, N} | set(
            np.linspace(0, N, 1500).round().astype(int).tolist()
        ))),
        "screen test",
    )

    @pytest.mark.parametrize("block", [sweep.BLOCK_ELEMENTS, 50])
    @pytest.mark.parametrize("M", [3, 6, 22, 86, 1053, 1366])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_equals_full_pass(self, q, M, block, monkeypatch):
        ks, Ns, errors = _full_pass(M, q, self.GRID)
        i = int(np.argmax(errors))
        monkeypatch.setattr(sweep, "BLOCK_ELEMENTS", block)
        r = _sweep_with_sharpness(M, q, self.GRID)
        assert (r.worst_error, r.argmax_k, r.argmax_N) == (errors[i], ks[i], Ns[i])

    def test_exact_q2_tie_is_in_the_grid(self):
        # the means 1/4 and 1 have s = 1/2 - 3e-14 and 1/2 at M = 1053: an
        # exact q = 2 tie, decided by rounding as in the full pass
        ks, _, errors = _full_pass(1053, 2.0, self.GRID)
        quarter, one = errors[ks.index(self.N // 4)], errors[ks.index(self.N)]
        assert quarter != one and abs(quarter - one) <= 1e-15 * one
        assert max(quarter, one) == errors.max()

    @pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("M", [6, 1053])
    def test_all_integral_grid(self, q, M):
        N = 2**52
        ks = sorted({round(math.sin(math.pi * m / M) ** 2 * N) for m in range(M // 2 + 1)})
        grid = GridSpec(N, tuple(ks), "integral")
        assert _block_angles(ks, [N] * len(ks), [k / N for k in ks], M)[2].all()
        r = worst_avg_error(M, q, grid)
        assert (r.worst_error, r.argmax_k) == (0.0, 0)

    def test_pole_guard_checks_skipped_means(self, monkeypatch):
        # with a tighter snap in the angles, a mean at s ~ 1e-10 reaches the
        # kernel's pole guard, which the screen runs on every mean before
        # any kernel pass (this mean's bound is far below the screen's floor)
        M, N = 1053, 2**52
        k_pole = round(math.sin(math.pi * (M // 3 + 1e-10) / M) ** 2 * N)
        grid = GridSpec(N, (1, k_pole, N // 3, N // 2), "near pole")
        monkeypatch.setattr(model, "INTEGER_TOL", 1e-13)
        with pytest.raises(ConsistencyError) as full:
            _kernel_errors(M, 1.0, grid.ks, [N] * 4)
        calls = _counted_kernel(monkeypatch)
        for n in (0, 2):  # unboosted and boosted screens
            with pytest.raises(ConsistencyError) as screened:
                worst_avg_error(M, 1.0, grid, n_reps=n)
            assert str(screened.value) == str(full.value)
        assert f"k={k_pole}," in str(full.value) and calls == []

    def test_kernel_sees_few_means(self, monkeypatch):
        # the gain: kernel rows on the default grid of over 10^4 means, as
        # measured (a full pass runs every mean)
        calls = _counted_kernel(monkeypatch)
        for q, M, kept in ((1.0, 6, 1), (1.0, 1053, 10), (1.5, 1366, 2721)):
            calls.clear()
            worst_avg_error(M, q)
            assert sum(calls) <= kept, (q, M, sum(calls))


def _kernel_means(monkeypatch):
    """Patch the sweep's kernel to record the k of every row it runs."""
    seen = []
    kernel = sweep._block_errors

    def spied(*args):
        seen.extend(args[5].tolist())
        return kernel(*args)

    monkeypatch.setattr(sweep, "_block_errors", spied)
    return seen


class TestKernelOncePerMean:
    """The floor's row is the first kept row: no mean of a screened sweep
    reaches the kernel twice."""

    @staticmethod
    def assert_once(seen, M, grid, sharp):
        # a sharpness mean may repeat a grid mean; each row runs at most once
        ks = sweep._sweep_means(M, grid, sharp)[1][0].tolist()
        assert seen
        assert not Counter(seen) - Counter(ks), sorted((Counter(seen) - Counter(ks)).items())

    @pytest.mark.parametrize("M", [6, 86, 1053])
    @pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
    def test_unboosted(self, q, M, monkeypatch):
        seen = _kernel_means(monkeypatch)
        worst_avg_error(M, q)
        self.assert_once(seen, M, default_grid(), True)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("M", [86, 342])
    def test_boosted(self, M, n, monkeypatch):
        grid = default_grid(count=2000)
        seen = _kernel_means(monkeypatch)
        for q in (1.0, 2.0):
            seen.clear()
            worst_avg_error(M, q, grid, n_reps=n)
            self.assert_once(seen, M, grid, False)


def _median_error_q(inst: MeanInstance, q: float, n: int) -> float:
    """E|a - median|^q from the output atoms and the median distribution,
    0 on the integral-sigma branch."""
    base = collapse_outputs(outcome_distribution(inst))
    if base.angles.sigma_is_integer:
        return 0.0
    rhos = median_distribution(base, n).rhos
    return float(np.dot(rhos, np.abs(inst.a - base.alphas) ** q))


def _assert_max_or_tie(r, candidates, want):
    """r reports the maximum of want at an argmax whose error ties the
    maximum within 1e-13 (mirror means a, 1 - a tie under boosting)."""
    top = max(want)
    assert abs(r.worst_error - top) <= 1e-13 * top
    near = {(c.k, c.N) for c, w in zip(candidates, want) if w >= top * (1.0 - 1e-13)}
    assert (r.argmax_k, r.argmax_N) in near


class TestBoostedSweep:
    N = 2**21

    def candidates(self, M):
        N = self.N
        ks = {0, 1, N // 4, N // 2, 3 * N // 4, N - 1, N}
        ks |= {int(k) for k in np.linspace(0, N, 31).round()}
        grid = GridSpec(N, tuple(sorted(ks)), "boosted test")
        insts = [MeanInstance(k, N, M) for k in grid.ks] + sharpness_instances(M)
        return grid, insts

    @pytest.mark.parametrize("M", [3, 4, 6, 7, 86])
    @pytest.mark.parametrize("n", [1, 3, 64])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_matches_per_instance_loop(self, q, n, M, monkeypatch):
        grid, insts = self.candidates(M)
        monkeypatch.setattr(sweep, "BLOCK_ELEMENTS", 40)
        assert len(insts) * M > 40  # more rows than one block
        r = _sweep_with_sharpness(M, q, grid, n)
        assert r.n_reps == n
        want = [repetition_error(inst, q, n) for inst in insts]
        _assert_max_or_tie(r, insts, want)
        # the same errors from the output atoms, outside the block kernel
        for inst, w in zip(insts, want):
            ref = _median_error_q(inst, q, n) ** (1.0 / q)
            assert abs(w - ref) <= 1e-13 * max(ref, 1e-300), (inst, w, ref)

    def test_integral_means_score_zero(self):
        # at M = 4 the means 0, 1/2 and 1 have integral sigma: exactly 0,
        # not the rounding residue of |a - alpha|, and the tie goes to k = 0
        N = self.N
        r = worst_avg_error(4, 2.0, GridSpec(N, (0, N // 2, N), "integral"), n_reps=2)
        assert (r.worst_error, r.argmax_k) == (0.0, 0)

    def test_domain(self):
        grid = default_grid(count=50)
        with pytest.raises(DomainError):
            worst_avg_error(6, math.inf, grid, n_reps=1)
        with pytest.raises(DomainError):
            worst_avg_error(6, 2.0, grid, n_reps=65)
        with pytest.raises(DomainError):
            worst_avg_error(6, 2.0, grid, n_reps=1.5)

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_repetition_theorem_matches_pairwise_formula(self, q):
        # the former one-mean-at-a-time formula: worst base and boosted
        # E|a - alpha|^q over grid + sharpness, integral means skipped
        grid = default_grid(count=150)
        rows = check_repetition_theorem(q, [6, 22], grid)
        n = math.ceil(q) + 1
        for row in rows:
            insts = [MeanInstance(k, grid.N, row.M) for k in grid.ks]
            insts += sharpness_instances(row.M)
            base = max(_median_error_q(i, q, 0) for i in insts) ** (1.0 / q)
            rep = max(_median_error_q(i, q, n) for i in insts) ** (1.0 / q)
            assert row.n == n
            assert abs(row.worst_base_error - base) <= 1e-13 * base
            assert abs(row.worst_rep_error - rep) <= 1e-13 * rep

    def test_repetition_theorem_default_grid(self):
        (row,) = check_repetition_theorem(2.0, [6])
        grid = default_grid(count=REPS_GRID_COUNT)
        r = worst_avg_error(6, 2.0, _plus_sharpness(grid, 6), n_reps=3)
        assert row.worst_rep_error == r.worst_error


class TestAsymptoticTable:
    def test_q1_normalization(self):
        grid = default_grid(count=400)
        rows = asymptotic_table(1.0, [6, 22], grid)
        for r in rows:
            assert r.normalized_constant == pytest.approx(
                r.worst_error * r.M / math.log(r.M), rel=1e-15
            )

    def test_q2_normalization(self):
        grid = default_grid(count=400)
        (row,) = asymptotic_table(2.0, [22], grid)
        assert row.normalized_constant == pytest.approx(
            row.worst_error * math.sqrt(22), rel=1e-15
        )

    def test_sup_error_degeneracy(self):
        # odd M: full mean errs by 1; even M: mean 1/N errs by 1 - 1/N
        grid = default_grid(count=50)
        rows = asymptotic_table(math.inf, [5, 6], grid)
        assert rows[0].worst_error == pytest.approx(1.0, abs=1e-15)
        assert rows[1].worst_error == pytest.approx(1 - 1 / grid.N, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            asymptotic_table(1.0, [])
        with pytest.raises(DomainError):
            asymptotic_table(1.0, [6, 6])
        with pytest.raises(DomainError):
            asymptotic_table(1.0, [22, 6])


class TestNegativeReps:
    @pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("n_reps", [-1, -2])
    def test_rejected(self, q, n_reps):
        # any nonzero n_reps boosts: a negative count is a domain error,
        # never a silent unboosted sweep labelled with it
        with pytest.raises(DomainError):
            worst_avg_error(6, q, default_grid(4096, 64), n_reps=n_reps)
        with pytest.raises(DomainError):
            asymptotic_table(q, [6], default_grid(4096, 64), n_reps=n_reps)
