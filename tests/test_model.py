import math

import numpy as np
import pytest

from qsum.errors import DomainError
from qsum.model import MeanInstance, _block_angles, derive_angles, random_instances
from qsum.sweep import default_grid


class TestMeanInstance:
    def test_mean_value(self):
        assert MeanInstance(3, 8, 5).a == 0.375

    def test_validation(self):
        with pytest.raises(DomainError):
            MeanInstance(-1, 8, 5)
        with pytest.raises(DomainError):
            MeanInstance(9, 8, 5)
        with pytest.raises(DomainError):
            MeanInstance(1, 0, 5)
        with pytest.raises(DomainError):
            MeanInstance(1, 8, 0)
        with pytest.raises(DomainError):
            MeanInstance(1.5, 8, 5)

    def test_m_at_most_2_53(self):
        # past 2^53 sigma has no fractional bits: the exact mean 1 at
        # M = 2^54 + 1 would get s = 0.5 rounded away and be flagged integral
        assert MeanInstance(3, 7, 2**53).M == 2**53
        for M in (2**53 + 1, 2**54 + 1):
            with pytest.raises(DomainError, match=rf"^M must lie in \[1, 2\^53\], got {M}$"):
                MeanInstance(3, 7, M)


def _near_integral_means(M: int, N: int = 2**52) -> list[int]:
    """k/N with sigma at offsets around integer_tol from integers m."""
    ks = []
    for m in {1, M // 3, M // 2 - 1}:
        for t in (0.0, 2e-10, -5e-10, 9e-10, -9.9e-10, 1.1e-9, -2e-9, 5e-9):
            ks.append(round(math.sin(math.pi * (m + t) / M) ** 2 * N))
    return ks


def _assert_block_is_derive_angles(cases, M):
    """_block_angles on the means k/N of cases equals derive_angles per mean,
    bit for bit, zeros' signs included; returns its integral flags."""
    ks, Ns = zip(*cases)
    sigma, s, integral = _block_angles(ks, Ns, [k / N for k, N in cases], M)
    angs = [derive_angles(MeanInstance(k, N, M)) for k, N in cases]
    assert sigma.tobytes() == np.array([a.sigma for a in angs]).tobytes()
    assert s.tobytes() == np.array([a.s for a in angs]).tobytes()
    assert np.array_equal(integral, [a.sigma_is_integer for a in angs])
    return integral


class TestBlockAngles:
    @pytest.mark.parametrize("M", [3, 4, 5, 6, 7, 8, 86, 1053, 4096])
    def test_bit_identical_to_derive_angles(self, M):
        cases = [(k, 4096) for k in range(4097)]
        cases += [(k, 999) for k in range(1000)]
        cases += [(k, 2**20) for k in default_grid().ks]
        for N in (2**52, 2**53, 2**53 - 1):
            cases += [(k, N) for k in _near_integral_means(M, N) + [0, N // 2, N]]
        _assert_block_is_derive_angles(cases, M)
        near_ks = _near_integral_means(M)
        near = _block_angles(near_ks, [2**52] * len(near_ks), [k / 2**52 for k in near_ks], M)[2]
        assert near.any() and not near.all()  # both sides of the tolerance

    @pytest.mark.parametrize("M, want", [(6, {0, 16, 48, 64}), (12, {0, 16, 32, 48, 64})])
    def test_dense_grid_snaps_quarter_means(self, M, want):
        # a = 1/4 and 3/4 are not exact means: the generic rule snaps them,
        # and a = 1/4 lands one ulp off its integer, so only by the tolerance
        integral = _assert_block_is_derive_angles([(k, 64) for k in range(65)], M)
        assert set(np.flatnonzero(integral).tolist()) == want
        assert not derive_angles(MeanInstance(16, 64, M), integer_tol=0.0).sigma_is_integer


class TestDeriveAngles:
    def test_zero_mean(self):
        ang = derive_angles(MeanInstance(0, 8, 5))
        assert ang.theta == 0.0 and ang.sigma == 0.0
        assert ang.s == 0.0 and ang.sigma_is_integer

    def test_half_mean_multiple_of_four(self):
        ang = derive_angles(MeanInstance(4, 8, 4))
        assert ang.theta == pytest.approx(math.pi / 4, abs=0)
        assert ang.sigma == 1.0 and ang.s == 0.0 and ang.sigma_is_integer

    def test_full_mean_odd_M(self):
        ang = derive_angles(MeanInstance(8, 8, 3))
        assert ang.theta == pytest.approx(math.pi / 2, abs=0)
        assert ang.sigma == 1.5
        assert ang.s == 0.5 and not ang.sigma_is_integer

    def test_half_mean_two_mod_four(self):
        ang = derive_angles(MeanInstance(1, 2, 6))
        assert ang.s == 0.5 and ang.s_lo == 0.5 and ang.s_hi == 0.5

    def test_fraction_bookkeeping(self):
        rng = np.random.default_rng(5)
        for inst in random_instances(rng, 300):
            ang = derive_angles(inst)
            assert 0.0 <= ang.s <= 0.5
            assert (ang.s == 0.0) == ang.sigma_is_integer
            if ang.sigma_is_integer:
                assert ang.s_lo == 0.0 and ang.s_hi == 0.0
                assert ang.sigma == round(ang.sigma)
            else:
                assert ang.s == min(ang.s_lo, ang.s_hi)
                assert ang.s_lo + ang.s_hi == pytest.approx(1.0, abs=1e-15)

    def test_sine_identity(self):
        # sin^2(M theta) = sin^2(pi s), the identity every evaluator leans on
        rng = np.random.default_rng(6)
        for inst in random_instances(rng, 300, m_range=(3, 512)):
            ang = derive_angles(inst)
            lhs = math.sin(inst.M * ang.theta) ** 2
            rhs = math.sin(math.pi * ang.s) ** 2
            assert abs(lhs - rhs) <= 1e-12

    def test_theta_monotone_in_k(self):
        N = 97
        thetas = [derive_angles(MeanInstance(k, N, 5)).theta for k in range(N + 1)]
        assert all(b >= a for a, b in zip(thetas, thetas[1:]))

    def test_snapping_tolerance(self):
        # quarter-mean angles land within float rounding of an integer sigma
        ang = derive_angles(MeanInstance(2**18, 2**20, 12))  # a = 1/4, sigma = 2
        assert ang.sigma_is_integer and ang.sigma == 2.0
        strict = derive_angles(MeanInstance(2**18, 2**20, 12), integer_tol=0.0)
        assert not strict.sigma_is_integer

    @pytest.mark.parametrize("k, N, M, tol, s", [(4, 8, 5, 0.3, 0.25), (8, 8, 7, 0.49, 0.5)])
    def test_exact_means_ignore_tolerance(self, k, N, M, tol, s):
        # the means 0, 1/2 and 1 are decided exactly at any integer_tol
        ang = derive_angles(MeanInstance(k, N, M), integer_tol=tol)
        assert ang.s == s and not ang.sigma_is_integer
        assert ang.sigma == M * k / (2 * N)
        # a generic mean as far from an integer snaps at that tolerance
        near = derive_angles(MeanInstance(2**19 + 1, 2**20, 5), integer_tol=0.3)
        assert near.sigma_is_integer and near.sigma == 1.0

    def test_tol_validation(self):
        with pytest.raises(DomainError):
            derive_angles(MeanInstance(1, 8, 5), integer_tol=0.5)
        with pytest.raises(DomainError):
            derive_angles(MeanInstance(1, 8, 5), integer_tol=-1e-3)


class TestRandomInstances:
    def test_ranges_and_reproducibility(self):
        rng = np.random.default_rng(9)
        insts = random_instances(rng, 50, m_range=(3, 64), n_max=2**10)
        assert len(insts) == 50
        for inst in insts:
            assert 3 <= inst.M <= 64
            assert inst.M < inst.N <= 2**10
            assert 0 <= inst.k <= inst.N
        again = random_instances(np.random.default_rng(9), 50, m_range=(3, 64), n_max=2**10)
        assert insts == again

    def test_noninteger_filter(self):
        rng = np.random.default_rng(10)
        for inst in random_instances(rng, 100, require_noninteger=True):
            assert not derive_angles(inst).sigma_is_integer
