"""Special functions and quadrature primitives.

Everything in this module is a pure function of its arguments, safe for
unrestricted concurrent use.  Scalar routines work in double precision and
target absolute accuracies one decade below what the bound evaluators and
their tests demand (1e-13 .. 1e-11 depending on the routine).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "QuadratureResult",
    "log_gamma",
    "regularized_incomplete_beta",
    "sin_power_integral",
    "integrate_adaptive",
    "rectangle_rule",
]


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for real x > 0 (math.lgamma)."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


@functools.lru_cache(maxsize=None)
def _median_coefficients(n: int) -> tuple[float, ...]:
    """C(2n+1, n+1+i) for i = n, n-1, ..., 0, as floats in Horner order."""
    m = 2 * n + 1
    return tuple(float(math.comb(m, n + 1 + i)) for i in range(n, -1, -1))


def _median_cdf(x: np.ndarray, n: int) -> np.ndarray:
    """The degree-(2n+1) median polynomial at points x in [0, 1].

    For z = min(x, 1 - x) <= 1/2 its binomial tail sum factors as

        I(z) = z^(n+1) (1-z)^n sum_{i=0..n} C(2n+1, n+1+i) r^i,  r = z/(1-z),

    with r in [0, 1]: one Horner pass of all-positive terms, so nothing
    cancels and the relative error stays near a few ulp at every n up to
    the cap.  Above 1/2, I(x) = 1 - I(1 - x), where 1 - x is exact.
    """
    z = np.minimum(x, 1.0 - x)
    w = 1.0 - z
    r = z / w
    coeffs = _median_coefficients(n)
    acc = np.full_like(z, coeffs[0])
    for c in coeffs[1:]:
        acc *= r
        acc += c
    acc *= z ** (n + 1)
    acc *= w**n
    np.subtract(1.0, acc, out=acc, where=x > 0.5)
    np.copyto(acc, 0.5, where=x == 0.5)  # t^n (1-t)^n is symmetric about 1/2
    return acc


# Keeps the median polynomial exactly evaluable in double precision and
# is far beyond any useful repetition count here.
MAX_REPETITION_N = 64


def _check_n(n) -> int:
    """The median polynomial's n: an integer (not a bool) in
    [0, MAX_REPETITION_N]."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"n must be an integer, got {n!r}")
    if not 0 <= n <= MAX_REPETITION_N:
        raise DomainError(f"n must lie in [0, {MAX_REPETITION_N}], got {n}")
    return int(n)


def regularized_incomplete_beta(x: float, n: int) -> float:
    """Distribution function of the median of 2n+1 iid uniforms on [0, 1].

    Computes (2n+1) C(2n, n) * integral_0^x t^n (1-t)^n dt, a polynomial of
    degree 2n+1 because n is a nonnegative integer.  It is evaluated on
    the nearer half, z = min(x, 1-x), as z^(n+1) (1-z)^n times a Horner
    polynomial with nonnegative coefficients in z/(1-z) <= 1, which keeps
    it accurate to a few ulp relative below 1/2 for every admissible n;
    the monomial form cancels catastrophically past n ~ 15.

    Monotone nondecreasing in x, with value 0 at x = 0, 1/2 at x = 1/2,
    and 1 at x = 1.
    """
    n = _check_n(n)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    return float(_median_cdf(np.array([float(x)]), n)[0])


def median_cdf_table(xs: np.ndarray, n: int) -> np.ndarray:
    """Vectorised regularized_incomplete_beta over an array of points.

    Same polynomial, evaluation and exact values at 0, 1/2 and 1 as the
    scalar routine; inputs are clipped to [0, 1] to absorb cumulative-sum
    rounding in callers.
    """
    n = _check_n(n)
    xs = np.clip(np.asarray(xs, dtype=float), 0.0, 1.0)
    return _median_cdf(xs, n)


def sin_power_integral(p: float) -> float:
    """integral_0^pi sin(x)^p dx for p > -1.

    Closed form sqrt(pi) * Gamma((p+1)/2) / Gamma(p/2 + 1), evaluated
    through log_gamma; the integral diverges for p <= -1.
    """
    if not p > -1.0:
        raise DomainError(f"sin_power_integral requires p > -1, got {p!r}")
    return math.sqrt(math.pi) * math.exp(
        log_gamma((p + 1.0) / 2.0) - log_gamma(p / 2.0 + 1.0)
    )


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive integration.

    error_estimate is absolute; converged is False when the evaluation
    budget ran out, in which case value is the best available estimate.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool

    def __post_init__(self) -> None:
        if self.error_estimate < 0.0 or self.evaluations < 1:
            raise DomainError("invalid QuadratureResult fields")


# The 15-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre.
# leggauss(15) returns it (a test pins them equal), written out so that
# importing qsum does not load numpy.polynomial.
_GL_NODES = np.array(
    [
        -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
        -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
        -0.20119409399743451, 0.0, 0.20119409399743451,
        0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
        0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
    ]
)
_GL_WEIGHTS = np.array(
    [
        0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
        0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
        0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
        0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
        0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
    ]
)

# Exponent m of the u = (x - lo)^(1/m) substitution used on panels that
# touch a flagged-singular endpoint.  m = 12 turns x^alpha endpoint
# behaviour into u^(m(alpha+1)-1), bounded for every alpha >= -11/12,
# which covers the x^(q-2) integrands with q > 1 that arise here down to
# q ~ 1.084 and all the negative sine powers exercised by the tests.
_SINGULAR_EXPONENT = 12.0

# Smallest argument offset from a singular endpoint at which f is still
# sampled.  Near a nonzero endpoint the float grid quantizes offsets to
# multiples of its ulp, so samples below ~2^33 ulp are too noisy to use;
# the remaining sliver is integrated analytically from a power-law fit
# instead of being sampled.  (A zero endpoint has no such wall: floats
# are dense there, hence the tiny floor.)
_OFFSET_ULP_FACTOR = 2.0**33
_OFFSET_FLOOR = 1e-280


def _vectorized(f: Callable, lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    """Adapt f to ndarray evaluation, falling back to a scalar loop."""
    probe = lo + (hi - lo) * np.array([0.375, 0.625])
    try:
        out = np.asarray(f(probe), dtype=float)
        if out.shape == probe.shape:
            return lambda x: np.asarray(f(x), dtype=float)
    except (TypeError, ValueError):
        pass
    return lambda x: np.array([float(f(t)) for t in x], dtype=float)


def _panel(fv: Callable, a: float, b: float) -> tuple[float, float]:
    """Gauss-Legendre estimate over [a, b] plus the node-to-node total
    variation of the integrand (the latter scales the argument-rounding
    noise floor)."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GL_NODES
    y = fv(x)
    tv = float(np.abs(np.diff(y)).sum())
    return half * float(np.dot(_GL_WEIGHTS, y)), tv


def _adapt(
    fv: Callable,
    a: float,
    b: float,
    tol: float,
    budget: int,
    noise_floor: Callable | None = None,
):
    """Bisection-adaptive Gauss-Legendre on [a, b].

    Returns (value, error_estimate, evaluations, converged).  Panels are
    accepted when the coarse/fine discrepancy fits their share of tol, or
    falls under the noise floor: float arguments carry rounding of order
    |x| eps, which puts an irreducible level ~ eps |x| |f'| on integrand
    values; refining past it would split forever without gaining
    accuracy.  The default floor estimates |f'| dx from the node-to-node
    variation; callers with sharper models (singular pieces) can pass
    noise_floor(lo, hi, fine).
    """
    total = b - a
    value = 0.0
    err = 0.0
    evals = 15
    arg_eps = max(abs(a), abs(b)) * np.finfo(float).eps
    stack = [(a, b, _panel(fv, a, b)[0])]
    min_width = total * 2.0**-48
    # Accepted-panel discrepancies sum to at most half of tol, leaving
    # headroom for panels that bottom out at min_width or at the noise
    # floor.
    share = 0.5 * tol / total
    while stack:
        if evals + 30 > budget:
            # Budget exhausted: fold in the unrefined panels as-is.
            for lo, hi, coarse in stack:
                value += coarse
                err += tol * (hi - lo) / total
            return value, err, evals, False
        lo, hi, coarse = stack.pop()
        mid = 0.5 * (lo + hi)
        left, tv_l = _panel(fv, lo, mid)
        right, tv_r = _panel(fv, mid, hi)
        evals += 30
        fine = left + right
        disc = abs(fine - coarse)
        floor = 4.0 * arg_eps * (tv_l + tv_r)
        if noise_floor is not None:
            floor = max(floor, noise_floor(lo, hi, fine))
        if disc <= max(share * (hi - lo), floor) or (hi - lo) <= min_width:
            value += fine
            err += disc
        else:
            stack.append((lo, mid, left))
            stack.append((mid, hi, right))
    return value, err, evals, True


def _power_tail(g: Callable, a: float):
    """Integral of g over [0, a] assuming g ~ C u^beta there, beta > -1.

    The exponent is fitted from samples at a, c a, c^2 a, where c keeps
    the corresponding argument offsets within a factor 16 so the local
    power law is clean; the leading quadratic deviation from it is
    removed by Richardson extrapolation of the two one-step slopes, whose
    spread also feeds the error estimate.  Returns (tail, error, ok,
    alpha), where alpha is the implied local exponent of f itself at the
    endpoint (0 for a bounded integrand).
    """
    m = _SINGULAR_EXPONENT
    c = 4.0 ** (1.0 / m)
    s = g(np.array([a, c * a, c * c * a]))
    if not np.all(np.isfinite(s)):
        return 0.0, math.inf, False, 1.0
    if s[0] == 0.0:
        return 0.0, float(np.abs(s).max()) * a, True, 0.0
    sgn = 1.0 if s[0] > 0.0 else -1.0
    mags = sgn * s
    if mags.min() <= 0.0:
        # Sign change this close to the endpoint: not a power law.
        return 0.0, float(np.abs(s).max()) * a, True, 1.0
    log_c = math.log(c)
    b12 = math.log(mags[1] / mags[0]) / log_c
    b23 = math.log(mags[2] / mags[1]) / log_c
    ratio = c ** (2.0 * m)  # growth of the u^(2m) correction per step
    beta = (ratio * b12 - b23) / (ratio - 1.0)
    if beta <= -0.999 or b12 <= -0.999:
        return 0.0, math.inf, False, 1.0
    tail = sgn * mags[0] * a / (beta + 1.0)
    alt = sgn * mags[0] * a / (b12 + 1.0)
    err = abs(tail - alt) + 1e-14 * abs(tail)
    alpha = (beta + 1.0) / m - 1.0
    return tail, err, True, alpha


def _singular_piece(fv: Callable, endpoint: float, sign: float, w: float,
                    tol: float, budget: int):
    """Integrate f over the width-w interval ending at a singular endpoint.

    sign = +1 integrates [endpoint, endpoint + w], sign = -1 the mirror.
    Uses the u = offset^(1/m) substitution on the sampled range and a
    fitted power-law tail for offsets the float grid around the endpoint
    cannot resolve.
    """
    m = _SINGULAR_EXPONENT

    def g(u, _fv=fv, _e=endpoint, _s=sign):
        return _fv(_e + _s * u**m) * m * u ** (m - 1.0)

    upper = w ** (1.0 / m)
    eps_abs = abs(endpoint) * np.finfo(float).eps
    offset_min = max(_OFFSET_FLOOR, eps_abs * _OFFSET_ULP_FACTOR)
    # The fit samples sit at a, c a, c^2 a and must stay inside [0, upper].
    c2 = 4.0 ** (2.0 / m)
    a = min(offset_min ** (1.0 / m), 0.9 * upper / c2)
    tail, tail_err, ok, alpha = _power_tail(g, a)

    noise_floor = None
    noise_gain = abs(alpha) + 1e-3
    if eps_abs > 0.0:
        # Quantizing x = endpoint +- u^m to the float grid leaves integrand
        # values with relative noise ~ |alpha| eps_abs / u^m; refining
        # below that cannot help, so it caps the acceptance threshold.
        def noise_floor(lo, hi, fine, _eps=eps_abs, _gain=noise_gain):
            return 4.0 * _gain * abs(fine) * _eps / lo**m if lo > 0.0 else math.inf

    value, err, evals, conv = _adapt(g, a, upper, tol, budget, noise_floor)
    return value + tail, err + tail_err, evals + 3, conv and ok


def integrate_adaptive(
    f: Callable,
    lo: float,
    hi: float,
    abs_tol: float = 1e-10,
    *,
    singular_lo: bool = False,
    singular_hi: bool = False,
    max_evals: int = 10**6,
) -> QuadratureResult:
    """Adaptive quadrature of f over [lo, hi] to absolute tolerance abs_tol.

    A flagged endpoint declares integrable power-law behaviour there
    (f ~ C (x - endpoint)^alpha with alpha > -1).  The outermost quarter
    of the interval on that side is then integrated under the
    power-absorbing substitution u = (x - endpoint)^(1/m), which turns
    the blowup into a bounded integrand and never evaluates f at the
    endpoint itself; the sliver of offsets too small for the float grid
    around the endpoint to resolve is completed analytically from a
    local power-law fit.  On success error_estimate <= abs_tol; if the
    evaluation budget runs out the best estimate is returned with
    converged = False.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if not abs_tol > 0.0:
        raise DomainError(f"abs_tol must be positive, got {abs_tol!r}")
    fv = _vectorized(f, lo, hi)
    length = hi - lo
    w = 0.25 * length
    npieces = 1 + int(singular_lo) + int(singular_hi)
    piece_tol = abs_tol / npieces

    value = 0.0
    err = 0.0
    evals = 0
    converged = True
    for flagged, endpoint, sign in ((singular_lo, lo, 1.0), (singular_hi, hi, -1.0)):
        if flagged:
            v, e, n, ok = _singular_piece(fv, endpoint, sign, w, piece_tol,
                                          max_evals - evals)
            value += v
            err += e
            evals += n
            converged = converged and ok
    inner_lo = lo + w if singular_lo else lo
    inner_hi = hi - w if singular_hi else hi
    v, e, n, ok = _adapt(fv, inner_lo, inner_hi, piece_tol, max_evals - evals)
    value += v
    err += e
    evals += n
    converged = converged and ok and err <= abs_tol
    return QuadratureResult(float(value), float(err), evals, bool(converged))


def rectangle_rule(f: Callable, a: float, b: float, k: int) -> float:
    """Left-endpoint rectangle sum (b-a)/k * sum_{j<k} f(a + j (b-a)/k)."""
    if not a < b:
        raise DomainError(f"need a < b, got [{a!r}, {b!r}]")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    h = (b - a) / k
    nodes = a + h * np.arange(k)
    return h * math.fsum(_vectorized(f, a, b)(nodes).tolist())
