import math

import numpy as np
import pytest

from qsum.errors import DomainError
from qsum.model import MeanInstance, derive_angles, random_instances
from qsum.numerics import integrate_adaptive
from qsum.error_analysis import (
    L1_SLACK_CONSTANT,
    _half_lq_integral,
    check_cot_sum_rectangle_bound,
    check_l1_cot_sum_bound,
    check_l1_log_bound,
    check_lq_integral_bound,
    cot_sum,
    full_lq_integral,
    local_avg_error,
    local_sup_error,
    lq_asymptotic_main_term,
)


class TestBoundReport:
    def test_flag_must_match_quantities(self):
        from qsum.error_analysis import BoundReport

        BoundReport(1.0, 1.0, 0.0, True, (1, 2, 3, 1.0))
        BoundReport(2.0, 1.0, 0.5, False, (1, 2, 3, 1.0))
        with pytest.raises(DomainError):
            BoundReport(2.0, 1.0, 0.5, True, (1, 2, 3, 1.0))
        with pytest.raises(DomainError):
            BoundReport(1.0, 1.0, 0.0, False, (1, 2, 3, 1.0))


class TestLocalAvgError:
    def test_integral_sigma_is_exactly_zero(self):
        assert local_avg_error(MeanInstance(4, 8, 4), 2.0) == 0.0

    def test_full_mean_M3_enumeration(self):
        # 1 * 1/9 + 1/4 * 8/9 = 1/3 by direct enumeration
        assert local_avg_error(MeanInstance(8, 8, 3), 1.0) == pytest.approx(1 / 3, abs=1e-14)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(31)
        for inst in random_instances(rng, 40, m_range=(3, 64)):
            for q in (1.0, 1.7, 3.0):
                got = local_avg_error(inst, q)
                # independent oracle: scalar loop over outcomes
                from qsum.distribution import exact_error, outcome_distribution

                d = outcome_distribution(inst)
                want = sum(
                    d.p[j] * exact_error(inst, j) ** q for j in range(inst.M)
                ) ** (1 / q)
                assert got == pytest.approx(want, abs=1e-12)

    def test_zero_iff_integral_sigma(self):
        rng = np.random.default_rng(32)
        for inst in random_instances(rng, 150):
            e = local_avg_error(inst, 1.0)
            if derive_angles(inst).sigma_is_integer:
                assert e == 0.0
            else:
                assert e > 1e-12

    def test_norm_monotonicity(self):
        rng = np.random.default_rng(33)
        for inst in random_instances(rng, 100):
            e1 = local_avg_error(inst, 1.0)
            e2 = local_avg_error(inst, 2.0)
            sup = local_sup_error(inst)
            assert e1 <= e2 + 1e-12
            assert e2 <= sup + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            local_avg_error(MeanInstance(1, 8, 5), 0.5)
        with pytest.raises(DomainError):
            local_avg_error(MeanInstance(1, 8, 5), math.inf)


class TestLocalSupError:
    def test_integral_sigma(self):
        assert local_sup_error(MeanInstance(4, 8, 4)) == 0.0

    def test_full_mean_odd_M(self):
        assert local_sup_error(MeanInstance(8, 8, 3)) == pytest.approx(1.0, abs=1e-15)

    def test_single_one_even_M(self):
        assert local_sup_error(MeanInstance(1, 16, 4)) == pytest.approx(1 - 1 / 16, abs=1e-13)


class TestCotSum:
    def test_half_mean_M2(self):
        # (1/2)(|cot pi/4| + |cot 3pi/4|) = 1
        assert cot_sum(MeanInstance(1, 2, 2)) == pytest.approx(1.0, abs=1e-14)

    def test_full_mean_M3(self):
        want = (2 / 3) * math.sqrt(3)
        assert cot_sum(MeanInstance(8, 8, 3)) == pytest.approx(want, abs=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(34)
        for inst in random_instances(rng, 50, require_noninteger=True):
            assert cot_sum(inst) >= 0.0

    def test_rejects_integral_sigma(self):
        with pytest.raises(DomainError):
            cot_sum(MeanInstance(4, 8, 4))


class TestL1CotSumBound:
    def test_full_mean_M3(self):
        r = check_l1_cot_sum_bound(MeanInstance(8, 8, 3))
        assert r.satisfied

    def test_half_mean_slack_vanishes(self):
        # cos(2 theta) = 0 at mean 1/2, so the approximation is exact
        # (slack only carries the rounding of cos(pi/2))
        r = check_l1_cot_sum_bound(MeanInstance(1, 2, 6))
        assert r.slack <= 1e-16
        assert abs(r.observed - r.main_term) <= 1e-10
        assert r.satisfied

    def test_rejects_integral_sigma(self):
        with pytest.raises(DomainError):
            check_l1_cot_sum_bound(MeanInstance(0, 8, 5))


class TestCotSumRectangleBound:
    @pytest.mark.parametrize(
        "inst",
        [MeanInstance(8, 8, 5), MeanInstance(3, 64, 11), MeanInstance(1, 2, 6)],
    )
    def test_examples(self, inst):
        r = check_cot_sum_rectangle_bound(inst)
        assert r.satisfied
        assert r.observed == pytest.approx(cot_sum(inst), abs=1e-14)

    def test_closed_form_integral_matches_quadrature(self):
        # ln(1/(sin(pi(1+s)/M) sin(pi(1-s)/M))) against adaptive |cot|
        inst = MeanInstance(8, 8, 5)
        ang = derive_angles(inst)
        M, s = inst.M, ang.s
        lo, hi = math.pi * (1 + s) / M, math.pi * (M - 1 + s) / M
        quad = integrate_adaptive(
            lambda x: np.abs(np.cos(x) / np.sin(x)), lo, hi, 1e-11
        )
        closed = -math.log(math.sin(lo) * math.sin(math.pi * (1 - s) / M))
        assert quad.value == pytest.approx(closed, abs=1e-10)

    def test_rejects_small_M(self):
        with pytest.raises(DomainError):
            check_cot_sum_rectangle_bound(MeanInstance(1, 2, 2))

    def test_stated_constant_fails_at_M3_corner(self):
        # pins the documented counterexample: at M = 3 with s near 1/2
        # the deviation exceeds the stated slack but stays within pi
        # times it (the level the rectangle-rule argument supports)
        inst = MeanInstance(2**20 - 1, 2**20, 3)
        r = check_cot_sum_rectangle_bound(inst)
        assert not r.satisfied
        dev = abs(r.observed - r.main_term)
        assert r.slack < dev <= math.pi * r.slack


class TestL1LogBound:
    def test_integral_sigma_trivial(self):
        r = check_l1_log_bound(MeanInstance(4, 8, 4))
        assert r.observed == 0.0 and r.main_term == 0.0 and r.satisfied

    def test_half_mean_main_term(self):
        # sin^2(pi s) sin(2 theta) = 1 at mean 1/2 with M = 2 mod 4
        r = check_l1_log_bound(MeanInstance(1, 2, 6))
        assert r.main_term == pytest.approx((2 / math.pi) * math.log(6) / 6, abs=1e-15)
        assert r.satisfied

    def test_large_M(self):
        assert check_l1_log_bound(MeanInstance(8, 8, 101)).satisfied

    def test_slack_constant_recomputed(self):
        # independent recomputation from its definition
        assert L1_SLACK_CONSTANT == pytest.approx(
            (3 * math.pi + 2 + math.log(math.pi**2)) / math.pi, abs=0
        )
        r = check_l1_log_bound(MeanInstance(8, 8, 5))
        ang = derive_angles(MeanInstance(8, 8, 5))
        want = (3 * math.pi + 2 + math.log(math.pi**2)) / (5 * math.pi) * math.sin(
            math.pi * ang.s
        )
        assert r.slack == pytest.approx(want, rel=1e-15)

    def test_rejects_small_M(self):
        with pytest.raises(DomainError):
            check_l1_log_bound(MeanInstance(1, 8, 2))


class TestLqIntegralBound:
    def test_q2_half_mean(self):
        # main term = integral of cos^2 over [pi/12, 11 pi/12] / (6 pi)
        r = check_lq_integral_bound(MeanInstance(1, 2, 6), 2.0)
        want = (5 * math.pi / 12 - 0.25) / (6 * math.pi)
        assert r.main_term == pytest.approx(want, abs=1e-10)
        assert r.satisfied

    @pytest.mark.parametrize(
        "q,inst",
        [
            (1.5, MeanInstance(8, 8, 21)),
            (3.0, MeanInstance(5, 32, 10)),
            (1.2, MeanInstance(7, 19, 33)),
            (5.0, MeanInstance(11, 40, 17)),
        ],
    )
    def test_examples(self, q, inst):
        r = check_lq_integral_bound(inst, q)
        assert r.satisfied
        assert r.observed == pytest.approx(local_avg_error(inst, q) ** q, rel=1e-12)

    def test_both_orientations_recorded(self):
        r = check_lq_integral_bound(MeanInstance(5, 32, 10), 3.0)
        d = dict(r.details)
        assert set(d) == {"main_primary", "main_swapped"}
        # the reported main term is the conservative orientation
        dev = max(abs(r.observed - d["main_primary"]), abs(r.observed - d["main_swapped"]))
        assert abs(r.observed - r.main_term) == dev

    def test_domain(self):
        with pytest.raises(DomainError):
            check_lq_integral_bound(MeanInstance(8, 8, 3), 1.0)
        with pytest.raises(DomainError):
            check_lq_integral_bound(MeanInstance(4, 8, 4), 2.0)


class TestAsymptoticMainTerm:
    def test_q2_half_mean_closed_form(self):
        # sin^2(pi s) = 1 and the integral is pi/2, so the term is 1/sqrt(2M)
        got = lq_asymptotic_main_term(MeanInstance(1, 2, 102), 2.0)
        assert got == pytest.approx(1 / math.sqrt(2 * 102), rel=1e-10)

    def test_vanishes_with_s(self):
        # snap-adjacent means: the sin^2(pi s) factor crushes the term
        inst = MeanInstance(1, 2**20, 5)
        ang = derive_angles(inst)
        assert ang.s < 4e-3
        got = lq_asymptotic_main_term(inst, 2.0)
        assert got < 5e-3

    def test_ratio_to_exact_error(self):
        # full mean with odd M keeps s = 1/2; ratio tends to 1
        inst = MeanInstance(8, 8, 1001)
        ratio = lq_asymptotic_main_term(inst, 1.2) / local_avg_error(inst, 1.2)
        assert abs(ratio - 1.0) <= 0.1


class TestRandomizedBatteries:
    def test_all_bounds_on_random_instances(self):
        rng = np.random.default_rng(35)
        insts = random_instances(rng, 120, require_noninteger=True)
        qs = (1.2, 1.5, 2.0, 3.0, 5.0)
        for i, inst in enumerate(insts):
            assert check_l1_log_bound(inst).satisfied
            assert check_l1_cot_sum_bound(inst).satisfied
            assert check_cot_sum_rectangle_bound(inst).satisfied
            assert check_lq_integral_bound(inst, qs[i % 5]).satisfied


def _gamma_form(q):
    # integral_0^pi sin^(2q-2) x dx = sqrt(pi) Gamma(q - 1/2) / Gamma(q),
    # the full integral at theta = pi/2, where |sin(x + pi)|^q = sin^q x
    return math.sqrt(math.pi) * math.exp(math.lgamma(q - 0.5) - math.lgamma(q))


class TestMainTermNearQOne:
    def test_gamma_form_at_half_pi(self):
        # k = N with odd M: theta = pi/2 and s = 1/2, so sin^2(pi s) = 1
        inst = MeanInstance(8, 8, 1001)
        for q in (1.01, 1.05):
            want = (_gamma_form(q) / math.pi / inst.M) ** (1.0 / q)
            assert lq_asymptotic_main_term(inst, q) == pytest.approx(want, rel=1e-14)

    def test_seeded_means_are_finite(self):
        insts = random_instances(np.random.default_rng(3), 20, require_noninteger=True)
        for inst in insts[:5]:
            for q in (1.01, 1.05, 1.1):
                assert 0.0 < lq_asymptotic_main_term(inst, q) < math.inf


class TestFullLqIntegral:
    @pytest.mark.parametrize("q", [1.01, 1.05, 1.5, 2.0, 3.0])
    def test_gamma_form_at_half_pi(self, q):
        assert full_lq_integral(math.pi / 2, q) == pytest.approx(_gamma_form(q), rel=1e-14)

    @pytest.mark.parametrize("q", [10.0, 50.0, 200.0, 1000.0])
    def test_gamma_form_at_large_q(self, q):
        # the powers lose a few ulp times q; the weight's power 2q - 2 at
        # the merged kink is taken mod 1, so the rule stays finite
        assert full_lq_integral(math.pi / 2, q) == pytest.approx(_gamma_form(q), rel=2e-15 * q)

    def test_single_outcome_range_is_empty(self):
        # M = 1: the range [pi s_hi, pi - pi s_lo] has no length
        r = check_lq_integral_bound(MeanInstance(1, 3, 1), 1.5)
        assert r.main_term == 0.0
        assert dict(r.details) == {"main_primary": 0.0, "main_swapped": 0.0}


def _half_reference(theta, q, a):
    """integral_a^(pi/2) sin(x)^(q-2) |sin(x + 2 theta)|^q dx in 20-digit
    mpmath, independent of the Gauss-Jacobi panels: exact pi in the
    kinks and in the upper limit; tanh-sinh on pieces cut at the kink and
    graded by powers of 8 toward a singular point near a piece; and
    x = u^m, m = 1/(q - 1), on a piece that starts at the sin^(q-2)
    blowup, so the quadrature sees a bounded integrand there."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 20
    th, q, lo = mp.mpf(theta), mp.mpf(q), mp.mpf(a)

    def f(x):
        return mp.sin(x) ** (q - 2) * abs(mp.sin(x + 2 * th)) ** q

    p0 = -2 * th - mp.pi * mp.nint(-2 * th / mp.pi)  # the kink in [-pi/2, pi/2]
    points = (mp.zero, p0, p0 + mp.pi)
    cuts = sorted({lo, mp.pi / 2} | {z for z in points if lo < z < mp.pi / 2})
    total = mp.zero
    for left, right in zip(cuts, cuts[1:]):
        nodes = {left, right}
        for z in points:
            if not left <= z <= right:
                end, step = (left, left - z) if z < left else (right, right - z)
                while abs(step) < right - left:
                    nodes.add(end + step)
                    step *= 8
        nodes = sorted(nodes)
        if left == 0 and q < 2:
            m = 1 / (q - 1)
            total += mp.quad(lambda u: f(u**m) * m * u ** (m - 1), [0, nodes[1] ** (1 / m)])
            nodes = nodes[1:]
        total += mp.quad(f, nodes)
    return total


def _truncated_cases():
    """100 random (theta, q, a) with a > 0: four in five put the kink
    within 1e-9 .. 1e-1 of pi/2 (theta near pi/4) or of the blowup at 0
    (theta near 0 or pi/2), and a quarter take offsets a from 1e-10 to
    1e-4; then theta = +-pi/4 and +-pi/2, where the kink sits at pi/2
    and at 0."""
    rng = np.random.default_rng(1969)
    qs = (1.01, 1.05, 1.2, 1.5, 2.0, 2.5, 3.0, 5.0)
    cases = []
    for i in range(100):
        q = float(rng.choice(qs)) if i % 2 else float(rng.uniform(1.01, 5.0))
        near = 10.0 ** rng.uniform(-9, -1)
        theta = (
            float(rng.uniform(0.0, math.pi / 2)),
            math.pi / 2 - near,
            math.pi / 4 + near,
            math.pi / 4 - near,
            near,
        )[i % 5]
        M = int(rng.integers(3, 4097))
        a = (10.0 ** rng.uniform(-10, -4) if i % 4 == 0
             else math.pi * float(rng.uniform(0.01, 1)) / M)
        cases.append((float(rng.choice([-1.0, 1.0])) * theta, q, a))
    for theta in (math.pi / 4, math.pi / 2):
        for sign in (1.0, -1.0):
            for q, a in ((1.01, 1e-10), (1.5, 3e-4), (3.0, 0.3)):
                cases.append((sign * theta, q, a))
    return cases


class TestHalfLqIntegral:
    """The folded half-integral of the q > 1 main terms against mpmath."""

    @pytest.mark.parametrize("theta, q, a", _truncated_cases())
    def test_against_mpmath(self, theta, q, a):
        want = float(_half_reference(theta, q, a))
        assert _half_lq_integral(theta, q, a) == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("q", [1.01, 1.2, 2.5])
    def test_untruncated_against_mpmath(self, q):
        for theta in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2 - 1e-6):
            for sign in (1.0, -1.0):
                want = float(_half_reference(sign * theta, q, 0.0))
                assert _half_lq_integral(sign * theta, q, 0.0) == pytest.approx(want, rel=1e-13)
