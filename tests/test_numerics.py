import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsum
from qsum import numerics
from qsum.errors import DomainError
from qsum.numerics import (
    integrate_adaptive,
    log_gamma,
    median_cdf_table,
    regularized_incomplete_beta,
    sin_power_integral,
)


class TestLogGamma:
    def test_against_stdlib(self):
        # one decade below the 1e-12 accuracy the evaluators need
        for x in [0.05, 0.1, 0.3, 0.49, 0.5, 0.51, 1.0, 1.5, 2.0, 3.7,
                  10.0, 56.5, 101.0, 400.0]:
            ref = math.lgamma(x)
            assert abs(log_gamma(x) - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_exact_points(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestRegularizedIncompleteBeta:
    def test_zero_is_zero(self):
        assert regularized_incomplete_beta(0.0, 5) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 3, 7, 20])
    def test_half_is_half(self, n):
        assert regularized_incomplete_beta(0.5, n) == 0.5

    def test_hand_derived_quarter(self):
        # 6*(x^2/2 - x^3/3) at x =, frozen from the polynomial antiderivative
        assert regularized_incomplete_beta(0.25, 1) == pytest.approx(0.15625, abs=1e-15)

    def test_n0_is_identity(self):
        for x in [0.0, 0.125, 0.7, 1.0]:
            assert regularized_incomplete_beta(x, 0) == pytest.approx(x, abs=1e-15)

    def test_complement_identity(self):
        rng = np.random.default_rng(11)
        for n in range(21):
            for x in rng.random(40):
                total = regularized_incomplete_beta(float(x), n) + \
                    regularized_incomplete_beta(float(1 - x), n)
                assert abs(total - 1.0) <= 1e-12

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 201)
        for n in (1, 4, 10, 64):
            vals = [regularized_incomplete_beta(float(x), n) for x in xs]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_quadrature_cross_check(self):
        # independent route: adaptively integrate the defining integrand
        for n in (2, 5, 9):
            for x in (0.1, 0.37, 0.81):
                norm = (2 * n + 1) * math.comb(2 * n, n)
                ref = norm * integrate_adaptive(
                    lambda t, _n=n: t**_n * (1 - t) ** _n, 0.0, x, 1e-13
                ).value
                assert regularized_incomplete_beta(x, n) == pytest.approx(ref, abs=1e-12)

    def test_array_form_matches_scalar(self):
        xs = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
        got = median_cdf_table(xs, 4)
        want = [regularized_incomplete_beta(float(x), 4) for x in xs]
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(-0.1, 2)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.1, 2)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.5, -1)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.5, 65)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.5, 2.0)


class TestSinPowerIntegral:
    def test_known_values(self):
        assert sin_power_integral(0.0) == pytest.approx(math.pi, abs=1e-13)
        assert sin_power_integral(1.0) == pytest.approx(2.0, abs=1e-13)
        assert sin_power_integral(2.0) == pytest.approx(math.pi / 2.0, abs=1e-13)

    @pytest.mark.parametrize("p", [-0.9, -0.5, 0.5, 1.0, 3.0])
    def test_agrees_with_quadrature(self, p):
        if p < 0:
            # Gauss-Jacobi with weight (x (pi - x))^p, x = pi (1 + t)/2;
            # sin x = sin y at the offset y from the nearer end
            t, w = numerics._gauss_jacobi(30, p, p)
            y = 0.5 * math.pi * (1.0 - np.abs(t))
            ratio = np.sin(y) / (y * (math.pi - y))
            value = (0.5 * math.pi) ** (2.0 * p + 1.0) * float(w @ ratio**p)
        else:
            res = integrate_adaptive(lambda x: np.sin(x) ** p, 0.0, math.pi, 1e-8)
            assert res.converged
            value = res.value
        assert abs(value - sin_power_integral(p)) <= 1e-8

    @pytest.mark.parametrize("p", [-1.0, -1.5])
    def test_divergent_rejected(self, p):
        with pytest.raises(DomainError):
            sin_power_integral(p)


class TestIntegrateAdaptive:
    def test_sine(self):
        res = integrate_adaptive(np.sin, 0.0, math.pi, 1e-12)
        assert res.converged
        assert res.error_estimate <= 1e-12
        assert abs(res.value - 2.0) <= 1e-12

    def test_cos_squared_form(self):
        q = 2.0
        res = integrate_adaptive(
            lambda x: np.sin(x) ** (q - 2) * np.abs(np.sin(x + math.pi / 2)) ** q,
            0.0,
            math.pi,
            1e-12,
        )
        assert abs(res.value - math.pi / 2) <= 1e-11

    def test_scalar_only_integrand_supported(self):
        res = integrate_adaptive(math.sin, 0.0, math.pi, 1e-10)
        assert abs(res.value - 2.0) <= 1e-10

    def test_budget_exhaustion_flagged(self):
        res = integrate_adaptive(
            lambda x: np.sin(1.0 / x), 1e-8, 1.0, 1e-14, max_evals=500
        )
        assert not res.converged
        assert res.evaluations <= 500 + 45

    def test_result_counts(self):
        res = integrate_adaptive(np.cos, 0.0, 1.0, 1e-10)
        assert res.evaluations >= 1
        assert res.error_estimate >= 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_adaptive(np.sin, 1.0, 0.0, 1e-10)
        with pytest.raises(DomainError):
            integrate_adaptive(np.sin, 0.0, 1.0, 0.0)


class TestGaussLegendreRule:
    def test_literals_equal_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(15)
        assert numerics._GL_NODES.tobytes() == nodes.tobytes()
        assert numerics._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_import_leaves_numpy_polynomial_out(self):
        # a fresh interpreter: the test process itself has loaded it above;
        # no Gauss-Jacobi rule is built at import either
        env = dict(os.environ)
        src = str(Path(qsum.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, qsum; sys.exit('numpy.polynomial' in sys.modules"
            " or qsum.numerics._gauss_jacobi.cache_info().currsize > 0)"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestGaussJacobiRule:
    """Golub-Welsch nodes and weights for (1 - t)^alpha (1 + t)^beta."""

    def test_legendre_case_equals_literals(self):
        nodes, weights = numerics._gauss_jacobi(15, 0.0, 0.0)
        assert np.abs(nodes - numerics._GL_NODES).max() <= 1e-15
        assert np.abs(weights - numerics._GL_WEIGHTS).max() <= 1e-15

    # the (alpha, beta) pairs the main-term panels use at q = 1.01, 1.5
    # and 3, and the sin-power oracle's symmetric ones
    EXPONENTS = sorted(
        {(a, b) for q in (1.01, 1.5, 3.0)
         for a, b in ((q, q - 2), (0.0, q - 2), (q, 2 * q - 2), (0.0, 2 * q - 2),
                      (q, 0.0), (0.0, q), (0.0, 0.0))}
        | {(-0.5, -0.5), (-0.9, -0.9)}
    )

    @pytest.mark.parametrize("alpha, beta", EXPONENTS)
    def test_moments_match_beta_closed_forms(self, alpha, beta):
        # integral (1 - t)^alpha (1 + t)^beta t^k over [-1, 1], with
        # t = 2u - 1 and the binomial expansion of (2u - 1)^k, is
        # 2^(alpha+beta+1) sum_j C(k, j) 2^j (-1)^(k-j) B(beta+j+1, alpha+1);
        # the alternating sum is taken in 50 digits
        mpmath = pytest.importorskip("mpmath")
        ctx = mpmath.mp.clone()
        ctx.dps = 50
        a, b = ctx.mpf(alpha), ctx.mpf(beta)

        betas = [ctx.beta(b + j + 1, a + 1) for j in range(40)]
        moments = [
            float(2 ** (a + b + 1) * ctx.fsum(
                math.comb(k, j) * 2**j * (-1) ** (k - j) * betas[j] for j in range(k + 1)
            ))
            for k in range(40)
        ]
        for n in (1, 2, 5, 20):
            nodes, weights = numerics._gauss_jacobi(n, alpha, beta)
            assert np.all(np.diff(nodes) > 0) and nodes[0] > -1 and nodes[-1] < 1
            assert np.all(weights > 0)
            for k in range(2 * n):
                got = float(weights @ nodes**k)
                assert abs(got - moments[k]) <= 1e-13 * moments[0], (n, k)


class TestQuadratureResultTypes:
    def test_builtin_types(self):
        res = integrate_adaptive(np.sin, 0.0, 1.0, 1e-10)
        assert type(res.value) is float
        assert type(res.error_estimate) is float
        assert type(res.evaluations) is int
        assert res.converged is True


class TestMedianNRule:
    """One n-rule for every median-polynomial entry point."""

    @staticmethod
    def _entry_points():
        from qsum.distribution import collapse_outputs, outcome_distribution
        from qsum.model import MeanInstance
        from qsum.repetitions import median_distribution

        base = collapse_outputs(outcome_distribution(MeanInstance(1, 3, 6)))
        return (
            lambda n: regularized_incomplete_beta(0.3, n),
            lambda n: median_cdf_table([0.3], n),
            lambda n: median_distribution(base, n),
        )

    @pytest.mark.parametrize(
        "n, message",
        [
            (True, "n must be an integer, got True"),
            (False, "n must be an integer, got False"),
            (1.0, "n must be an integer, got 1.0"),
            (-1, r"n must lie in \[0, 64\], got -1"),
            (65, r"n must lie in \[0, 64\], got 65"),
            (np.int64(65), r"n must lie in \[0, 64\], got 65"),
        ],
    )
    def test_rejected_alike(self, n, message):
        for call in self._entry_points():
            with pytest.raises(DomainError, match=f"^{message}$"):
                call(n)

    def test_integer_types_accepted(self):
        for call in self._entry_points():
            for n in (0, 64, np.int64(1)):
                call(n)
        assert regularized_incomplete_beta(0.3, np.int64(1)) == pytest.approx(0.216)


class TestMedianPolynomialAccuracy:
    """The median polynomial against a 50-digit evaluation of its binomial
    tail sum: a few ulp relative on [0, 1/2], where the nearer-tail median
    masses read it, and a few ulp absolute above."""

    NS = (1, 2, 3, 8, 32, 64)

    @staticmethod
    def reference(x: float, n: int):
        mpmath = pytest.importorskip("mpmath")
        ctx = mpmath.mp.clone()
        ctx.dps = 50
        m, x = 2 * n + 1, ctx.mpf(x)
        return ctx.fsum(math.comb(m, k) * x**k * (1 - x) ** (m - k) for k in range(n + 1, m + 1))

    @pytest.mark.parametrize("n", NS)
    def test_relative_below_half(self, n):
        rng = np.random.default_rng(100 + n)
        # powers of two down to where z^(n+1) is still a normal float
        near_zero = [2.0**-k for k in range(1, 60) if (n + 1) * k < 990]
        xs = np.concatenate([0.5 * rng.random(60), near_zero, [0.5 - 2.0**-54]])
        got = median_cdf_table(xs, n)
        for x, g in zip(xs.tolist(), got.tolist()):
            ref = self.reference(x, n)
            assert abs(g - ref) <= 2e-14 * ref, (x, g, float(ref))

    @pytest.mark.parametrize("n", NS)
    def test_absolute_above_half(self, n):
        rng = np.random.default_rng(200 + n)
        xs = np.concatenate([1.0 - 0.5 * rng.random(60), [0.5 + 2.0**-53, 1.0 - 2.0**-53]])
        got = median_cdf_table(xs, n)
        for x, g in zip(xs.tolist(), got.tolist()):
            assert abs(g - self.reference(x, n)) <= 1e-14, (x, g)

    @pytest.mark.parametrize("n", range(65))
    def test_exact_points(self, n):
        assert median_cdf_table([0.0, 0.5, 1.0], n).tolist() == [0.0, 0.5, 1.0]
        assert [regularized_incomplete_beta(x, n) for x in (0.0, 0.5, 1.0)] == [0.0, 0.5, 1.0]
