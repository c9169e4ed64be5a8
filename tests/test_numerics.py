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
        # independent route: integrate the defining integrand, a polynomial
        # of degree 2n, by a Gauss-Legendre rule exact for it
        nodes, weights = numerics._gauss_jacobi(10, 0.0, 0.0)
        for n in (2, 5, 9):
            for x in (0.1, 0.37, 0.81):
                t = 0.5 * x * (1.0 + nodes)
                norm = (2 * n + 1) * math.comb(2 * n, n)
                ref = norm * 0.5 * x * float(weights @ (t**n * (1 - t) ** n))
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
        # Gauss-Jacobi with weight (x (pi - x))^p, x = pi (1 + t)/2, valid
        # for every p > -1; sin x = sin y at the offset y from the nearer
        # end, and sin y / (y (pi - y)) is smooth and positive
        t, w = numerics._gauss_jacobi(30, p, p)
        y = 0.5 * math.pi * (1.0 - np.abs(t))
        ratio = np.sin(y) / (y * (math.pi - y))
        value = (0.5 * math.pi) ** (2.0 * p + 1.0) * float(w @ ratio**p)
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

    # 16 is the first blocked n, 40 pads its top block of 8 with 7 zeros,
    # and 63 fills its 8 blocks exactly
    NS = (1, 2, 3, 8, 16, 32, 40, 63, 64)

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


def _horner_reference(x: np.ndarray, n: int) -> np.ndarray:
    """The median polynomial as one plain Horner pass of n steps, with its
    inputs inlined: the reference that the plain pass must match bit for
    bit and the blocked pass within a band."""
    m = 2 * n + 1
    coeffs = tuple(float(math.comb(m, n + 1 + i)) for i in range(n, -1, -1))
    z = np.minimum(x, 1.0 - x)
    w = 1.0 - z
    r, upper, half = z / w, x > 0.5, x == 0.5
    acc = np.full_like(z, coeffs[0])
    for c in coeffs[1:]:
        acc *= r
        acc += c
    acc *= z ** (n + 1)
    acc *= w**n
    np.subtract(1.0, acc, out=acc, where=upper)
    np.copyto(acc, 0.5, where=half)
    return acc


def _hard_points(seed: int) -> np.ndarray:
    """60 seeded points of [0, 1]: the exact points 0, 1/2 and 1, values
    within 1e-300 of 0 (subnormals among them), values next to 1/2 and 1,
    and uniform draws on both halves, shuffled."""
    rng = np.random.default_rng(seed)
    fixed = [0.0, 0.5, 1.0, 1e-300, 3e-301, 1e-310, 5e-324, 0.5 - 2.0**-54, 0.5 + 2.0**-53, 1.0 - 2.0**-53]
    xs = np.concatenate([fixed, 1e-300 * rng.random(10), rng.random(40)])
    rng.shuffle(xs)
    return xs


class TestBlockedMedianPolynomial:
    """The median polynomial's blocked Horner pass: the block size rule,
    bits against the plain pass and independence of the points' shape."""

    @pytest.mark.parametrize("n", range(65))
    def test_block_rule(self, n):
        b, coeffs = numerics._median_coefficients(n)
        if n < 16:
            assert b == 1 and len(coeffs) == n + 1 and coeffs[0] == 1.0
            return
        nb = coeffs.shape[1]
        assert b & (b - 1) == 0 and n + 1 <= 2 * b * b <= 4 * (n + 1)  # a power of two near sqrt(n + 1)
        assert coeffs.shape[0] == b and (nb - 1) * b < n + 1 <= nb * b <= 9 * 8
        assert not coeffs.flags.writeable
        # the blocks, highest first and each in Horner order, zero-padded at the top
        want = [0.0] * (nb * b - n - 1) + [float(math.comb(2 * n + 1, n + 1 + i)) for i in range(n, -1, -1)]
        assert coeffs.T.ravel().tolist() == want

    def test_padding_cases(self):
        # the n the accuracy tests add: the first blocked n, a zero-padded
        # top block and an exact fill
        assert numerics._median_coefficients(16)[1].shape == (4, 5)
        assert numerics._median_coefficients(40)[1].shape == (8, 6)
        assert numerics._median_coefficients(63)[1].shape == (8, 8)
        assert numerics._median_coefficients(64)[1].shape == (8, 9)

    @pytest.mark.parametrize("n", range(16))
    def test_plain_n_bit_for_bit(self, n):
        xs = np.concatenate([_hard_points(n), np.random.default_rng(300 + n).random(2000)])
        got, want = numerics._median_cdf(xs, n), _horner_reference(xs, n)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(16, 65))
    def test_blocked_n_within_band(self, n):
        # all terms are positive in both passes, so they differ by a few ulp:
        # relative below 1/2 (the largest seen over 3e5 points was 7.7e-16,
        # on about a fifth of them), absolute above, where I = 1 - I(1 - x)
        xs = np.concatenate([_hard_points(n), np.random.default_rng(300 + n).random(2000)])
        got, want = numerics._median_cdf(xs, n), _horner_reference(xs, n)
        low = xs <= 0.5
        assert np.all(np.abs(got[low] - want[low]) <= 1e-15 * want[low])
        assert np.all(np.abs(got[~low] - want[~low]) <= 1e-15)
        assert got[xs == 0.0].tolist() == [0.0] and got[xs == 0.5].tolist() == [0.5]
        assert got[xs == 1.0].tolist() == [1.0]

    @pytest.mark.parametrize("n", range(65))
    def test_bits_independent_of_shape(self, n):
        # each point alone, in a (rows x points) block and in a bounds-shaped
        # (side, column, mean) array: the block size depends on n alone, so a
        # point's value does not depend on the points beside it
        xs = _hard_points(n)
        alone = np.concatenate([numerics._median_cdf(np.array([x]), n) for x in xs])
        block = numerics._median_cdf(xs.reshape(6, 10), n).ravel()
        bounds = numerics._median_cdf(xs.reshape(2, 5, 6), n).ravel()
        table = median_cdf_table(xs.reshape(3, 20), n).ravel()
        assert alone.tobytes() == block.tobytes() == bounds.tobytes() == table.tobytes()

    @pytest.mark.parametrize("n", [0, 3, 16, 64])
    @pytest.mark.parametrize("shape", [(), (0,), (0, 3), (5,), (2, 3), (2, 0, 4)])
    def test_table_keeps_shape(self, shape, n):
        xs = np.random.default_rng(7).random(shape)
        got = median_cdf_table(xs, n)
        assert isinstance(got, np.ndarray) and got.shape == shape
        flat = [regularized_incomplete_beta(float(x), n) for x in xs.ravel()]
        assert got.ravel().tolist() == flat


class TestMedianTableDomain:
    """median_cdf_table takes points as regularized_incomplete_beta does,
    except that it clips the rounding of cumulative sums into [0, 1]."""

    @pytest.mark.parametrize("n", [0, 3, 16, 64])
    def test_nan_rejected_as_by_the_scalar(self, n):
        with pytest.raises(DomainError, match=r"^x must lie in \[0, 1\], got nan$"):
            regularized_incomplete_beta(math.nan, n)
        for xs in ([0.2, math.nan], np.nan, [[0.1], [np.nan]]):
            with pytest.raises(DomainError, match=r"^x must lie in \[0, 1\], got nan$"):
                median_cdf_table(xs, n)

    @pytest.mark.parametrize("n", [0, 3, 16, 64])
    def test_infinities_clipped(self, n):
        got = median_cdf_table([math.inf, -math.inf, 1.0 + 1e-12, -1e-300], n)
        assert got.tolist() == [1.0, 0.0, 1.0, 0.0]
