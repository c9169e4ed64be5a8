import math

import numpy as np
import pytest

from qsum import sweep
from qsum.distribution import _block_errors, collapse_outputs, outcome_distribution
from qsum.errors import DomainError
from qsum.model import MeanInstance, derive_angles
from qsum.error_analysis import L1_SLACK_CONSTANT, local_avg_error
from qsum.repetitions import (
    REPS_GRID_COUNT,
    check_repetition_theorem,
    median_distribution,
    repetition_error,
)
from qsum.sweep import (
    GridSpec,
    asymptotic_table,
    default_grid,
    sharpness_instances,
    worst_avg_error,
)


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
        r = worst_avg_error(11, 2.0, grid, include_sharpness=True)
        again = local_avg_error(MeanInstance(r.argmax_k, r.argmax_N, r.M), 2.0)
        assert abs(r.worst_error - again) <= 1e-12

    def test_sharpness_injection_never_lowers(self):
        grid = default_grid(count=50)
        bare = worst_avg_error(10, 1.0, grid, include_sharpness=False)
        augmented = worst_avg_error(10, 1.0, grid, include_sharpness=True)
        assert augmented.worst_error >= bare.worst_error

    def test_grid_refinement_monotone(self):
        coarse = default_grid(count=50)
        fine = GridSpec(
            coarse.N,
            tuple(sorted(set(coarse.ks) | set(default_grid(count=400).ks))),
            "refined",
        )
        lo = worst_avg_error(17, 1.5, coarse, include_sharpness=False)
        hi = worst_avg_error(17, 1.5, fine, include_sharpness=False)
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
        r = worst_avg_error(M, 2.0, default_grid(count=500), include_sharpness=True)
        assert (r.argmax_k, r.argmax_N) == (2**19, 2**20)
        assert abs(r.worst_error * math.sqrt(M) - 1 / math.sqrt(2)) <= 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            worst_avg_error(2, 1.0)
        with pytest.raises(DomainError):
            worst_avg_error(12, 1.0, GridSpec(8, (1,), "N too small"))
        with pytest.raises(DomainError):
            GridSpec(8, (), "empty")


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
        r = worst_avg_error(M, q, grid, include_sharpness=True)
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
        r = worst_avg_error(6, 1.0, self.grid(6), include_sharpness=True)
        assert (r.argmax_k, r.argmax_N) == (2**19, 2**20)


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
        r = worst_avg_error(M, q, grid, n_reps=n, include_sharpness=True)
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
        r = worst_avg_error(6, 2.0, grid, n_reps=3, include_sharpness=True)
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
