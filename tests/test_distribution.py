import json
import math

import numpy as np
import pytest

from qsum.errors import ConsistencyError, DomainError
from qsum.model import MeanInstance, derive_angles, random_instances
from qsum.error_analysis import local_avg_error, local_sup_error
from qsum.distribution import (
    OutcomeDistribution,
    _block_errors,
    _check_poles,
    _folded_sines,
    _index_tables,
    _nearest_sines,
    collapse_outputs,
    event_probability,
    exact_error,
    outcome_distribution,
    output_value,
)


class TestOutcomeDistribution:
    def test_zero_mean_point_mass(self):
        d = outcome_distribution(MeanInstance(0, 8, 7))
        assert d.p[0] == 1.0 and d.p.sum() == 1.0

    def test_full_mean_M3(self):
        # p(0) = 1/M^2; the other two follow from the closed form
        d = outcome_distribution(MeanInstance(8, 8, 3))
        np.testing.assert_allclose(d.p, [1 / 9, 4 / 9, 4 / 9], atol=1e-14)

    def test_integral_sigma_canonical_index(self):
        d = outcome_distribution(MeanInstance(4, 8, 4))
        assert d.p[1] == 1.0

    def test_immutable(self):
        d = outcome_distribution(MeanInstance(8, 8, 3))
        with pytest.raises(ValueError):
            d.p[0] = 0.5

    def test_normalization_sweep(self):
        rng = np.random.default_rng(17)
        for inst in random_instances(rng, 250, m_range=(3, 2**12)):
            d = outcome_distribution(inst)
            assert d.p.min() >= 0.0
            assert abs(d.p.sum() - 1.0) <= 1e-10
            assert d.normalization_drift < 1e-10

    def test_near_integral_sigma_normalization(self):
        # fractional parts of sigma just above the snap tolerance put
        # ~1/2 mass on two near-pole outcomes; the identity must survive
        N = 2**44
        for M, s_target in [(101, 5e-9), (101, 1e-7), (997, 2e-8), (4096, 1e-5)]:
            m_int = M // 3
            a = math.sin(math.pi * (m_int + s_target) / M) ** 2
            inst = MeanInstance(round(a * N), N, M)
            assert not derive_angles(inst).sigma_is_integer
            d = outcome_distribution(inst)
            assert d.normalization_drift <= 1e-12
            assert d.p.max() == pytest.approx(0.5, abs=1e-6)

    def test_tiny_M(self):
        d = outcome_distribution(MeanInstance(3, 7, 1))
        assert d.p[0] == 1.0
        # at M = 2 the output expectation is the mean itself: p(1) = a
        d = outcome_distribution(MeanInstance(3, 7, 2))
        assert d.p[1] == pytest.approx(3 / 7, abs=1e-14)

    def test_near_pole_rejection(self):
        # an angle set within the pole guard that is not flagged integral
        # (inconsistent with integer_tol) must be rejected, not turned
        # into huge probabilities
        M = 4096
        s = 2.0**-43
        with pytest.raises(ConsistencyError, match="near-pole.*k=1, N=17592186044416"):
            _block_errors(
                M, None, np.array([600 + s]), np.array([s]), np.array([False]), (1,), (2**44,)
            )

    def test_o1_pole_guard_raises_the_kernels_error(self):
        # the sweep screen's guard reads each row's smallest sine in O(1)
        M, s = 4096, 2.0**-43
        sigma, flags = np.array([17.25, 600 + s]), np.array([False, False])
        with pytest.raises(ConsistencyError) as kernel:
            _block_errors(M, None, sigma, [0.25, s], flags, (3, 1), (8, 2**44))
        with pytest.raises(ConsistencyError) as screen:
            _check_poles(M, _nearest_sines(M, sigma, flags), sigma, (3, 1), (8, 2**44))
        assert str(screen.value) == str(kernel.value)

    @pytest.mark.parametrize("M", [3, 4, 7, 86, 1053, 4096])
    def test_nearest_sines_are_the_kernels_row_minima(self, M):
        rng = np.random.default_rng(M)
        sigma = rng.uniform(0.0, M / 2.0, 200)
        near = np.round(sigma[:60]) + rng.choice([-1.0, 1.0], 60) * 10.0 ** rng.uniform(-13, -1, 60)
        sigma = np.concatenate([np.clip(near, 0.0, M / 2.0), sigma, [0.0, 0.5, M / 4.0, M / 2.0]])
        integral = np.zeros(len(sigma), dtype=bool)
        want = _folded_sines(_index_tables(M)[0], sigma).min(axis=1)
        assert _nearest_sines(M, sigma, integral).tobytes() == want.tobytes()
        integral[::3] = True
        assert (_nearest_sines(M, sigma, integral)[::3] == 1.0).all()

    @pytest.mark.parametrize(
        "M, s_target", [(4096, 1.15e-9), (20000, 1.2e-9), (100000, 1.5e-9)]
    )
    def test_pole_guard_scales_with_M(self, M, s_target):
        # sigma just past the snap tolerance: the guard follows
        # integer_tol / M, so these are valid near-pole distributions
        N = 2**52
        m_int = M // 3
        a = math.sin(math.pi * (m_int + s_target) / M) ** 2
        inst = MeanInstance(round(a * N), N, M)
        ang = derive_angles(inst)
        assert not ang.sigma_is_integer and ang.s < 2e-9
        d = outcome_distribution(inst)
        assert d.normalization_drift <= 1e-10
        assert d.p.max() == pytest.approx(0.5, abs=1e-6)
        for q in (1.0, 2.0):
            e = local_avg_error(inst, q)
            assert math.isfinite(e) and 0.0 < e < 1e-6
        assert 0.0 < local_sup_error(inst) < 1e-6

    def test_small_mean_second_factor_exact(self):
        # sigma near 0 puts both csc^2 poles at j = 0; the second factor
        # must keep full relative accuracy there too.  Reference values:
        # the closed form in 50-digit mpmath arithmetic.
        for M, want in ((6, 1.3322676295501851e-15), (1000, 2.2204460490862949e-13)):
            inst = MeanInstance(1, 2**52, M)
            d = outcome_distribution(inst)
            assert d.normalization_drift <= 1e-12
            assert local_avg_error(inst, 1.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_serialization(self):
        d = outcome_distribution(MeanInstance(8, 8, 3))
        lines = d.to_csv().strip().split("\n")
        assert lines[0] == "j,p,alpha"
        assert len(lines) == 4
        j, p, alpha = lines[1].split(",")
        assert (j, float(p), float(alpha)) == ("0", 1 / 9, 0.0)
        payload = json.loads(d.to_json())
        assert payload == {"M": 3, "k": 8, "N": 8, "p": list(d.p)}


class TestOutputValue:
    def test_examples(self):
        assert output_value(0, 5) == 0.0
        assert output_value(3, 6) == 1.0
        assert output_value(1, 6) == pytest.approx(0.25, abs=1e-15)

    def test_symmetry_exact(self):
        for M in (3, 6, 7, 12, 101):
            for j in range(1, M):
                assert output_value(j, M) == output_value(M - j, M)

    def test_range_check(self):
        with pytest.raises(DomainError):
            output_value(5, 5)
        with pytest.raises(DomainError):
            output_value(-1, 5)
        with pytest.raises(DomainError):
            output_value(1.0, 5)

    def test_one_source_with_the_output_table(self):
        # `qsum dist` prints these; collapse, median and sampler read the table
        for M in range(1, 3000):
            alphas = _index_tables(M)[2]
            assert [output_value(j, M) for j in range(M // 2 + 1)] == alphas.tolist(), M


class TestExactError:
    def test_examples(self):
        assert exact_error(MeanInstance(0, 8, 5), 0) == 0.0
        assert exact_error(MeanInstance(8, 8, 3), 0) == pytest.approx(1.0, abs=1e-15)
        assert exact_error(MeanInstance(4, 8, 6), 1) == pytest.approx(0.25, abs=1e-14)

    def test_identity_with_output_value(self):
        # the product-of-sines form equals |a - output| everywhere
        rng = np.random.default_rng(19)
        worst = 0.0
        for inst in random_instances(rng, 200, m_range=(3, 256)):
            for j in range(inst.M):
                lhs = exact_error(inst, j)
                rhs = abs(inst.a - output_value(j, inst.M))
                worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12

    def test_range_check(self):
        with pytest.raises(DomainError):
            exact_error(MeanInstance(1, 8, 5), 5)


class TestCollapse:
    def test_point_mass(self):
        out = collapse_outputs(outcome_distribution(MeanInstance(0, 8, 7)))
        assert out.atoms == [(0.0, 1.0)]

    def test_full_mean_M3(self):
        out = collapse_outputs(outcome_distribution(MeanInstance(8, 8, 3)))
        alphas = out.alphas
        np.testing.assert_allclose(alphas, [0.0, 0.75], atol=1e-14)
        np.testing.assert_allclose(out.rhos, [1 / 9, 8 / 9], atol=1e-14)

    def test_uniform_bookkeeping(self):
        # synthetic uniform outcome vector over M = 4
        inst = MeanInstance(1, 3, 4)
        ang = derive_angles(inst)
        d = OutcomeDistribution(4, np.full(4, 0.25), inst, ang, 0.0)
        out = collapse_outputs(d)
        np.testing.assert_allclose(out.alphas, [0.0, 0.5, 1.0], atol=1e-15)
        np.testing.assert_allclose(out.rhos, [0.25, 0.5, 0.25], atol=1e-15)

    def test_integral_sigma_single_atom_at_mean(self):
        out = collapse_outputs(outcome_distribution(MeanInstance(4, 8, 4)))
        assert out.atoms == [(0.5, 1.0)]

    def test_mass_conserved_and_sorted(self):
        rng = np.random.default_rng(21)
        for inst in random_instances(rng, 150, m_range=(3, 512)):
            d = outcome_distribution(inst)
            out = collapse_outputs(d)
            assert abs(out.rhos.sum() - d.p.sum()) <= 1e-12
            assert np.all(np.diff(out.alphas) > 0)

    def test_cdf_table(self):
        out = collapse_outputs(outcome_distribution(MeanInstance(8, 8, 3)))
        assert out.cdf(0.0) == 0.0
        assert out.cdf(0.5) == pytest.approx(1 / 9, abs=1e-14)
        # strictly-below semantics at the atoms themselves
        assert out.cdf(float(out.alphas[1])) == pytest.approx(1 / 9, abs=1e-14)
        assert out.cdf(1.1) == 1.0
        np.testing.assert_allclose(out.cdf_below, [0.0, 1 / 9], atol=1e-14)


class TestEventProbability:
    def test_examples(self):
        d = outcome_distribution(MeanInstance(8, 8, 3))
        assert event_probability(d, set()) == 0.0
        assert event_probability(d, {0, 1, 2}) == pytest.approx(1.0, abs=1e-14)
        assert event_probability(d, {1, 2}) == pytest.approx(8 / 9, abs=1e-14)

    def test_duplicates_counted_once(self):
        d = outcome_distribution(MeanInstance(8, 8, 3))
        assert event_probability(d, [1, 1, 2]) == pytest.approx(8 / 9, abs=1e-14)

    def test_validation(self):
        d = outcome_distribution(MeanInstance(8, 8, 3))
        with pytest.raises(DomainError):
            event_probability(d, {3})
        with pytest.raises(DomainError):
            event_probability(d, {0.5})
