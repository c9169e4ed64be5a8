"""Special functions and quadrature primitives.

Everything in this module is a pure function of its arguments, safe for
unrestricted concurrent use.  Scalar routines work in double precision and
target absolute accuracies one decade below what the bound evaluators and
their tests demand (1e-13 .. 1e-11 depending on the routine).

Two quadratures: integrate_adaptive, bisection-adaptive Gauss-Legendre
for integrands that are smooth on the closed interval, and the private
Gauss-Jacobi rule, which integrates (1 - t)^alpha (1 + t)^beta times a
smooth factor; the q > 1 main terms of error_analysis are built on the
latter.
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
]


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for real x > 0 (math.lgamma)."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


@functools.lru_cache(maxsize=None)
def _median_coefficients(n: int) -> tuple[int, tuple | np.ndarray]:
    """The block size b of the median polynomial at n and its coefficients
    C(2n+1, n+1+i), i = n, n-1, ..., 0, in Horner order.

    b is a power of two near sqrt(n + 1), from n alone, and 1 below n = 16,
    where the plain pass keeps its bits and the coefficients are a tuple
    of floats.  Otherwise they are a
    read-only (b, nb) array, nb = ceil((n + 1)/b): column k holds block k
    of b consecutive degrees, the highest block first and its top degrees
    zero-padded, each block's own coefficients in Horner order.
    """
    m = 2 * n + 1
    coeffs = [float(math.comb(m, n + 1 + i)) for i in range(n, -1, -1)]
    if n < 16:
        return 1, tuple(coeffs)
    b = 1 << ((n + 1).bit_length() // 2)
    nb = -(-(n + 1) // b)
    table = np.array([0.0] * (nb * b - n - 1) + coeffs).reshape(nb, b).T.copy()
    table.flags.writeable = False
    return b, table


def _median_cdf(x: np.ndarray, n: int) -> np.ndarray:
    """The degree-(2n+1) median polynomial at points x in [0, 1].

    For z = min(x, 1 - x) <= 1/2 its binomial tail sum factors as

        I(z) = z^(n+1) (1-z)^n sum_{i=0..n} C(2n+1, n+1+i) r^i,  r = z/(1-z),

    with r in [0, 1]: a sum of positive terms, so nothing cancels.  Below
    n = 16 it is one Horner pass; from n = 16 on, a blocked Horner pass in
    O(sqrt n) numpy calls (_median_poly), which moves a value by at most a
    few ulp from the plain pass.  Either way the relative error stays near
    a few ulp at every n up to the cap.  Above 1/2, I(x) = 1 - I(1 - x),
    where 1 - x is exact.
    """
    return _median_poly(_median_inputs(x), n)


def _median_inputs(x: np.ndarray) -> tuple:
    """The n-independent half of _median_cdf at points x in [0, 1]: z =
    min(x, 1 - x), 1 - z, r = z/(1 - z) and the masks x > 1/2 and x = 1/2,
    each None where no point is in it.  A caller that evaluates one set of
    points at many n keeps these."""
    z = np.minimum(x, 1.0 - x)
    w = 1.0 - z
    return z, w, z / w, _any_or_none(x > 0.5), _any_or_none(x == 0.5)


def _any_or_none(mask: np.ndarray) -> np.ndarray | None:
    """The mask, or None if it selects nothing: a where= step it feeds can
    then be skipped."""
    return mask if mask.any() else None


def _median_poly(inputs: tuple, n: int) -> np.ndarray:
    """The n-dependent half of _median_cdf, on its _median_inputs, for an
    n already checked: the polynomial in r, the two powers, the reflection
    above 1/2 and the exact value at 1/2, in a new array.

    With block size b = 1 this is the plain Horner pass, started at r +
    C(2n+1, 2n) since the top coefficient is 1.  With b > 1 the blocks'
    own Horner passes run at once on a (nb, points) array, then a Horner
    pass over the blocks in r^b, from log2 b squarings of r: about 2b +
    2nb numpy calls in place of 2n.  b depends on n alone, never on the
    points' number or shape, so each point's bits do not depend on the
    points evaluated beside it.
    """
    z, w, r, upper, half = inputs
    b, coeffs = _median_coefficients(n)
    if b == 1:
        acc = r + coeffs[1] if n else np.ones_like(r)
        step, rest = r, coeffs[2:]
    else:
        cols = coeffs.reshape(coeffs.shape + (1,) * r.ndim)
        blocks = cols[0] * r
        blocks += cols[1]
        for c in cols[2:]:
            blocks *= r
            blocks += c
        step = r * r
        for _ in range(b.bit_length() - 2):
            step *= step
        acc = blocks[0] * step
        acc += blocks[1]
        rest = blocks[2:]
    for c in rest:
        acc *= step
        acc += c
    acc *= z ** (n + 1)
    acc *= w**n
    if upper is not None:
        np.subtract(1.0, acc, out=acc, where=upper)
    if half is not None:
        np.copyto(acc, 0.5, where=half)  # t^n (1-t)^n is symmetric about 1/2
    return acc


# Keeps the median polynomial exactly evaluable in double precision and
# is far beyond any useful repetition count here.
MAX_REPETITION_N = 64


def _check_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """The one integer rule of every public integer argument: a Python or
    numpy integer, not a bool (nor a float of integral value), in [lo, hi]
    where given, as an int.  A range failure reads "<name> must lie in
    [lo, hi], got <value>", or "[lo, inf)" where there is no hi."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        high = "inf)" if hi is None else f"{hi}]"
        raise DomainError(f"{name} must lie in [{lo}, {high}, got {value}")
    return value


def _check_n(n) -> int:
    """The median polynomial's n: an integer in [0, MAX_REPETITION_N]."""
    return _check_int(n, "n", 0, MAX_REPETITION_N)


_REALS = (float, int, np.floating, np.integer)


def _check_q(q: float) -> float:
    """The exponent of an L_q average: a Python or numpy real q in [1, inf),
    not a bool, as a float."""
    if isinstance(q, bool) or not isinstance(q, _REALS) or not 1.0 <= q < math.inf:
        raise DomainError(f"q must lie in [1, inf), got {q!r}")
    return float(q)


def regularized_incomplete_beta(x: float, n: int) -> float:
    """Distribution function of the median of 2n+1 iid uniforms on [0, 1].

    Computes (2n+1) C(2n, n) * integral_0^x t^n (1-t)^n dt, a polynomial of
    degree 2n+1 because n is a nonnegative integer.  It is evaluated on
    the nearer half, z = min(x, 1-x), as z^(n+1) (1-z)^n times a
    polynomial with nonnegative coefficients in z/(1-z) <= 1: a Horner
    pass below n = 16, a blocked Horner pass of the same positive terms
    from n = 16 on (see _median_cdf).  That keeps it accurate to a few ulp
    relative below 1/2 for every admissible n; the monomial form cancels
    catastrophically past n ~ 15.

    Monotone nondecreasing in x, with value 0 at x = 0, 1/2 at x = 1/2,
    and 1 at x = 1.
    """
    n = _check_n(n)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    return float(_median_cdf(np.array([float(x)]), n)[0])


def median_cdf_table(xs: np.ndarray, n: int) -> np.ndarray:
    """Vectorised regularized_incomplete_beta over an array of points, of
    any shape.

    Same polynomial, evaluation and exact values at 0, 1/2 and 1 as the
    scalar routine; inputs are clipped to [0, 1] to absorb cumulative-sum
    rounding in callers (so -inf reads as 0 and inf as 1), and a NaN point
    raises DomainError as it does there.
    """
    n = _check_n(n)
    xs = np.clip(np.asarray(xs, dtype=float), 0.0, 1.0)
    if np.isnan(xs).any():
        raise DomainError("x must lie in [0, 1], got nan")
    return _median_cdf(xs.reshape(xs.shape or 1), n).reshape(xs.shape)


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


def _adapt(fv: Callable, a: float, b: float, tol: float, budget: int):
    """Bisection-adaptive Gauss-Legendre on [a, b].

    Returns (value, error_estimate, evaluations, converged).  Panels are
    accepted when the coarse/fine discrepancy fits their share of tol, or
    falls under the noise floor: float arguments carry rounding of order
    |x| eps, which puts an irreducible level ~ eps |x| |f'| on integrand
    values; refining past it would split forever without gaining
    accuracy.  The floor estimates |f'| dx from the node-to-node
    variation.
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
        if disc <= max(share * (hi - lo), floor) or (hi - lo) <= min_width:
            value += fine
            err += disc
        else:
            stack.append((lo, mid, left))
            stack.append((mid, hi, right))
    return value, err, evals, True


def integrate_adaptive(
    f: Callable,
    lo: float,
    hi: float,
    abs_tol: float = 1e-10,
    *,
    max_evals: int = 10**6,
) -> QuadratureResult:
    """Adaptive quadrature of f over [lo, hi] to absolute tolerance abs_tol.

    f is sampled only at interior Gauss-Legendre nodes, never at lo or
    hi.  On success error_estimate <= abs_tol; if the evaluation budget
    runs out the best estimate is returned with converged = False.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if not abs_tol > 0.0:
        raise DomainError(f"abs_tol must be positive, got {abs_tol!r}")
    value, err, evals, ok = _adapt(_vectorized(f, lo, hi), lo, hi, abs_tol, max_evals)
    converged = ok and err <= abs_tol
    return QuadratureResult(float(value), float(err), evals, bool(converged))


@functools.lru_cache(maxsize=256)
def _gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Jacobi rule on [-1, 1] for the weight
    (1 - t)^alpha (1 + t)^beta, alpha, beta > -1, as (nodes, weights).

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the symmetric tridiagonal matrix of the Jacobi polynomials'
    three-term recurrence, and each weight is mu0 times the squared first
    component of its eigenvector, mu0 being the integral of the weight.
    The rule is exact for polynomials of degree below 2n.
    """
    ab = alpha + beta
    k = np.arange(1.0, n)
    s = 2.0 * k + ab
    diag = np.append((beta - alpha) / (ab + 2.0), (beta**2 - alpha**2) / (s * (s + 2.0)))
    # The squared off-diagonal carries (k + ab)/(s - 1), which is 1 at
    # k = 1; setting it there keeps ab = -1 finite.
    ratio = np.ones(n - 1)
    ratio[1:] = (k[1:] + ab) / (s[1:] - 1.0)
    off = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * ratio / (s * s * (s + 1.0)))
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    mu0 = 2.0 ** (ab + 1.0) * math.exp(
        math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(ab + 2.0)
    )
    weights = mu0 * vectors[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
