"""Worst-case error over Boolean means: grid sweeps and rate tables.

The supremum over all means is approximated by a grid a = k/N at large
fixed N (errors depend on the mean only through its angle, and k/2^20
resolves the angle's fractional part to ~M/2^20, ample for M up to 10^4),
augmented with the two constructions known to attain the bounds' rates.
Every result records its grid so sweeps are reproducible.

A sweep's set-up is array passes: its means come as int64 arrays of k and
N in ascending (k, N), a = k/N is one division (grids have N <= 2^53, so
k and N are exact doubles and the quotient is Python's k / N), and the
angles come from model._block_angles, which keeps libm's asin per mean so
that they are bit-identical to derive_angles.

Sweeps evaluate the means of one M in blocks, after deriving all their
angles in one pass: each block of BLOCK_ELEMENTS means x outcomes is one
numpy pass of the distribution's block kernel, and of its row-wise median
step when boosted, so a block's errors come out as one-mean calls
(local_avg_error, local_sup_error, repetition_error) would give them.
The block size is fixed; it bounds the pass's temporaries, not the result.

An unboosted sweep screens its means first: an O(1) upper bound on each
mean's error (_error_bounds) rules out the means that cannot reach the
maximum, and the kernel runs on the rest only, with the same result as a
pass over every mean.  The bound is exact at q = 2; at q = 1 it is the
cotangent sum split at its zero, exact up to M = 6 and within 0.3% above;
between them it is Hoelder's interpolation of the two, and above q = 2
max(a, 1 - a) times the q = 2 value.  On the default grid the kernel sees
2 to 52 of its 10^4 means at q = 1 and q = 2, and 4-27% at q = 1.5.
Boosted sweeps run every mean: the median's error has no such bound.

Where errors tie mathematically, rounding picks the argmax.  At q = 2 the
error is exactly |sin(pi s)| / sqrt(2 M), a function of s alone, so means
with equal s tie exactly; in boosted sweeps the mirror means a and 1 - a
tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .distribution import _block_errors, _block_median_errors, _check_poles, _nearest_sines
from .model import MeanInstance, _block_angles

__all__ = [
    "GridSpec",
    "SweepResult",
    "AsymptoticRow",
    "default_grid",
    "sharpness_instances",
    "worst_avg_error",
    "asymptotic_table",
]

DEFAULT_GRID_N = 2**20
DEFAULT_GRID_COUNT = 10**4
# Largest grid N: up to 2^53 every k/N is one division of exact doubles, and
# distinct means are distinct doubles.
MAX_GRID_N = 2**53
# Means x outcomes per numpy pass of an unboosted sweep: enough rows to
# amortize call overhead at small M; the pass's temporaries stay near 1 MB.
BLOCK_ELEMENTS = 2**14


@dataclass(frozen=True)
class GridSpec:
    """A set of means k/N (single N, many k) to sweep over, with
    integers 1 <= N <= MAX_GRID_N = 2^53 and k in [0, N]."""

    N: int
    ks: tuple[int, ...]
    label: str

    def __post_init__(self) -> None:
        if not isinstance(self.N, (int, np.integer)):
            raise DomainError(f"grid N must be an integer, got {self.N!r}")
        if self.N < 1 or not self.ks:
            raise DomainError("grid must have N >= 1 and at least one k")
        if self.N > MAX_GRID_N:
            raise DomainError(f"grid N must be at most 2^53, got {self.N}")
        if min(self.ks) < 0 or max(self.ks) > self.N:
            raise DomainError("grid k values must lie in [0, N]")


@dataclass(frozen=True)
class SweepResult:
    """Worst local error over a grid, with the attaining mean."""

    M: int
    q: float
    n_reps: int
    worst_error: float
    argmax_k: int
    argmax_N: int
    grid_spec: str


@dataclass(frozen=True)
class AsymptoticRow(SweepResult):
    """One row of a rate table: the sweep result and its normalization
    (worst_error * M/ln M for q = 1, * M^(1/q) for finite q > 1, raw for
    the supremum error)."""

    normalized_constant: float


def default_grid(
    N: int = DEFAULT_GRID_N, count: int = DEFAULT_GRID_COUNT, dense: bool = False
) -> GridSpec:
    """Evenly subsampled k-grid over [0, N], for 2 <= N <= MAX_GRID_N = 2^53.

    Always includes k in {0, 1, N-1, N} (the extreme means that the
    supremum-error constructions need).  dense sweeps every k; keep N
    small for that.
    """
    if N < 2:
        raise DomainError(f"grid N must be at least 2, got {N}")
    if N > MAX_GRID_N:
        raise DomainError(f"grid N must be at most 2^53, got {N}")
    if dense:
        ks = tuple(range(N + 1))
        return GridSpec(N, ks, f"k/{N} dense ({N + 1} points)")
    if count < 2:
        raise DomainError(f"grid count must be at least 2, got {count}")
    # sorted and deduplicated by hand: np.unique imports numpy.ma
    ks = np.concatenate([np.linspace(0, N, count).round().astype(int), [0, 1, N - 1, N]])
    ks.sort()
    ks = ks[np.concatenate([[True], ks[1:] != ks[:-1]])]
    return GridSpec(N, tuple(int(k) for k in ks), f"k/{N} subsampled ({len(ks)} points)")


def sharpness_instances(M: int, N: int = DEFAULT_GRID_N) -> list[MeanInstance]:
    """Means at which the error bounds' rates are attained.

    (i) k/N closest to sin^2(pi/4 + pi/(5 M)), whose angle keeps the
    error's leading factor separated from zero for every M; and (ii) the
    mean 1/2 exactly when M = 2 (mod 4), where that factor equals 1.
    """
    if M < 3:
        raise DomainError(f"sharpness instances need M >= 3, got {M}")
    if N <= M:
        raise DomainError(f"need N > M, got N={N}, M={M}")
    k_star = round(math.sin(math.pi / 4.0 + math.pi / (5.0 * M)) ** 2 * N)
    out = [MeanInstance(min(max(k_star, 0), N), N, M)]
    if M % 4 == 2 and N % 2 == 0:
        out.append(MeanInstance(N // 2, N, M))
    return out


def worst_avg_error(
    M: int,
    q: float,
    grid: GridSpec | None = None,
    *,
    n_reps: int = 0,
    include_sharpness: bool | None = None,
) -> SweepResult:
    """Maximize the local error over a grid of means.

    With no grid the default grid is used and the sharpness instances are
    always injected; an explicit grid is swept verbatim unless
    include_sharpness is set.  n_reps in [1, 64] sweeps the error of the
    median of 2 n_reps + 1 runs (finite q only); any other nonzero n_reps
    raises DomainError.  Ties in the maximum go to the smallest k (then
    smallest N), independent of evaluation order.
    """
    if M < 3:
        raise DomainError(f"sweeps require M >= 3, got M={M}")
    if math.isnan(q) or q < 1.0:
        raise DomainError(f"q must lie in [1, inf], got {q!r}")
    if n_reps != 0 and math.isinf(q):
        raise DomainError("boosted sweeps need finite q")
    if include_sharpness is None:
        include_sharpness = grid is None
    if grid is None:
        grid = default_grid()
    label, means = _sweep_means(M, grid, include_sharpness)
    if n_reps == 0:
        i, e = _screened_max(M, q, means)
    else:
        (errors,) = _grid_errors(M, q, means, (n_reps,))
        i = int(np.argmax(errors))
        e = errors[i]
    ks, Ns = means[:2]
    return SweepResult(M, q, n_reps, float(e), int(ks[i]), int(Ns[i]), label)


def _sweep_means(M: int, grid: GridSpec, include_sharpness: bool):
    """The label of a sweep and its means in ascending (k, N), as the
    arrays (ks, Ns, a, sigma, s, integral): a = k/N, and the angles as
    model._block_angles gives them."""
    if grid.N <= M:
        raise DomainError(f"grid needs N > M, got N={grid.N}, M={M}")
    ks = np.array(grid.ks)
    if ks.dtype.kind not in "iu":
        raise DomainError(f"grid k values must be integers, got {ks.dtype} values")
    ks = ks.astype(np.int64)
    Ns = np.full(len(ks), grid.N, dtype=np.int64)
    label = grid.label
    if include_sharpness:
        extra = sharpness_instances(M)
        ks = np.concatenate([ks, [inst.k for inst in extra]])
        Ns = np.concatenate([Ns, [inst.N for inst in extra]])
        label += " + sharpness"
    order = np.lexsort((Ns, ks))
    ks, Ns = ks[order], Ns[order]
    a = ks / Ns  # as Python's k / N: both are exact doubles up to MAX_GRID_N
    return label, (ks, Ns, a, *_block_angles(ks, Ns, a, M))


def _grid_errors(M: int, q: float, means, reps) -> np.ndarray:
    """Errors of the means (as _sweep_means gives them), one row per
    repetition count in reps, all read off one block-kernel pass per block
    of means (n = 0 takes the kernel's errors, n > 0 the median step on
    its p)."""
    ks, Ns, a, sigma, s, integral = means
    rows = max(1, BLOCK_ELEMENTS // M)
    errors = np.empty((len(reps), len(ks)))
    for i in range(0, len(ks), rows):
        b = slice(i, i + rows)
        e, p, _, _ = _block_errors(
            M, q if 0 in reps else None, sigma[b], s[b].tolist(), integral[b], ks[b], Ns[b]
        )
        for r, n in enumerate(reps):
            errors[r, b] = e if n == 0 else np.where(
                integral[b], 0.0, _block_median_errors(p, a[b], q, n)
            )
    return errors


# Relative slack of the screen: 10 x distribution._DRIFT_TOL, far above the
# kernel's rounding and the renormalization it absorbs, so no kernel error
# exceeds its bound times (1 + _SCREEN_MARGIN).
_SCREEN_MARGIN = 1e-9


def _screened_max(M: int, q: float, means) -> tuple[int, float]:
    """Index and value of the largest unboosted error of the means, the
    first in order at a tie, from the kernel on as few means as a bound
    allows.

    The kernel first runs on the mean of largest bound U (_error_bounds),
    whose error e is a lower bound on the maximum; then, in blocks and in
    order, on every mean with U (1 + _SCREEN_MARGIN) >= e.  A skipped
    mean's error is below e, so it can neither be nor tie the maximum,
    and a row's kernel result does not depend on the rows sharing its
    block: value, argmax and tie rule are those of the full pass.  The
    pole guard still checks every mean, in O(1) each; the drift and
    negativity checks run on every distribution the kernel builds, and a
    skipped mean builds none.
    """
    ks, Ns, a, sigma, s, integral = means
    _check_poles(M, _nearest_sines(M, sigma, integral), sigma, ks, Ns)
    bound = _error_bounds(M, q, a, sigma, s, integral)
    top = int(np.argmax(bound))
    floor = _grid_errors(M, q, [x[top : top + 1] for x in means], (0,))[0, 0]
    keep = np.flatnonzero(bound * (1.0 + _SCREEN_MARGIN) >= floor)
    (errors,) = _grid_errors(M, q, [x[keep] for x in means], (0,))
    i = int(np.argmax(errors))
    return int(keep[i]), errors[i]


def _error_bounds(
    M: int, q: float, a: np.ndarray, sigma: np.ndarray, s: np.ndarray, integral: np.ndarray
) -> np.ndarray:
    """Upper bounds U on the local L_q errors of the means a, in O(1) each.

    With x_j = pi (j - sigma)/M and y_j = pi (j + sigma)/M, the error
    |a - output(j)| is |sin x_j sin y_j| and p(j) = sin^2(pi s)/(2 M^2)
    (csc^2 x_j + csc^2 y_j), where y_j = x_j + 2 theta.

    q = 2: sum_j p(j) sin^2 x_j sin^2 y_j = sin^2(pi s)/(2 M^2) sum_j
    (sin^2 x_j + sin^2 y_j), and sum_j sin^2(pi (j -+ sigma)/M) = M/2
    for every sigma, so e_2 = |sin(pi s)| / sqrt(2 M) exactly.

    q = 1: e_1 = sin^2(pi s)/(2 M^2) sum_j (|sin y_j / sin x_j| +
    |sin x_j / sin y_j|), and sin(x + 2 theta)/sin x = f(x) = c + d cot x
    with c = cos 2 theta, d = sin 2 theta >= 0, a pi-periodic function.
    The offsets (j - sigma) mod M run over i + u, i = 0 .. M-1, with
    u = 1 - s_lo and s_lo = sigma - floor(sigma); the second ratio sum is
    the first with i -> M-1-i.  So e_1 = sin^2(pi s) S / M^2, with
    S = sum_i |f(x_i)|, x_i = h (i + u) and h = pi/M.
      f decreases on (0, pi) and vanishes once, at x0 = pi - 2 theta, and
    x_i < x0 iff i < K = M - 1 - 2 floor(sigma), an integer count.  Let A
    and B be the sums of |f| over the K points left of x0 and the M - K
    right of it.  sum_i cot(pi (i + u)/M) = M cot(pi u), so T = sum_i
    f(x_i) = M (c + d cot(pi u)) = A - B, and S = 2 A - T = 2 B + T.
      Bound the side on which |f| is convex.  When sigma > M/4, x0 <
    pi/2 and that side is A.  Otherwise it is B, which x -> pi - x turns
    into the same sum with c -> -c, u -> s_lo and K -> M - K.  On the
    bounded side keep the terms i = 0, 1 and K-1 exactly.  cot is convex
    on (0, pi/2], so by Hermite-Hadamard each term i = 2 .. K-2 is at
    most the mean of f over [x_i - h/2, x_i + h/2]; these cover
    [h (3/2 + u), h (K - 3/2 + u)], left of x0 - h/2, and integrating f
    gives c (K - 3) + (d/h) ln(sin(h (K - 3/2 + u)) / sin(h (3/2 + u)))
    for their sum.  Up to M = 6 every term is exact; above, U_1 is
    within 0.3% of e_1 on the means tested.
      Precision near a pole (s_lo or u near 0) and near a = 1: cot(pi u)
    is -+ 1/tan(pi s), the sign by the side of 1/2 that s_lo is on, not
    a cotangent of 1 - s_lo rounded; and d = 2 sin(pi sigma/M) sin(pi
    (M/2 - sigma)/M) and c = 1 - 2 sin^2(pi sigma/M) follow the sigma
    that the kernel uses, where 2 sqrt(a (1 - a)) does not.

    1 < q < 2: the L_q norm interpolates between L_1 and L_2 (Hoelder,
    1/q = (2/q - 1)/1 + (2 - 2/q)/2), so e_q <= U_1^(2/q-1) U_2^(2-2/q).

    q > 2: |a - output| <= max(a, 1 - a), so e_q^q <= max(a, 1 - a)^(q-2)
    e_2^2 and e_q <= max(a, 1 - a)^(1-2/q) U_2^(2/q); at q = inf this is
    max(a, 1 - a), which also bounds the supremum error.

    Integral sigma: the error is exactly 0.  U_2 and e_2 are equal, and
    U_1 = e_1 = 1/M at a = 1 with odd M, so these bounds are sharp.
    """
    x = np.where(integral, 0.5, s)  # finite cotangents; integral rows are 0 below
    sin2 = np.sin(np.pi * x) ** 2
    u2 = np.sqrt(sin2 / (2.0 * M))
    if q < 2.0:
        sigma = np.where(integral, 0.5, sigma)
        m = np.floor(sigma)
        s_lo = sigma - m
        K = M - 1 - 2 * m.astype(np.int64)
        t = math.pi / M
        sin_theta = np.sin(t * sigma)
        c = 1.0 - 2.0 * sin_theta**2
        d = 2.0 * sin_theta * np.sin(t * (M / 2.0 - sigma))
        T = M * (c + d * np.where(s_lo > 0.5, 1.0, -1.0) / np.tan(np.pi * x))
        left = sigma > M / 4.0
        part = _convex_side_bound(
            M, np.where(left, c, -c), d, np.where(left, 1.0 - s_lo, s_lo), np.where(left, K, M - K)
        )
        u1 = sin2 / (M * M) * (2.0 * part + np.where(left, -T, T))
        u = u1 ** (2.0 / q - 1.0) * u2 ** (2.0 - 2.0 / q)
    else:
        u = np.maximum(a, 1.0 - a) ** (1.0 - 2.0 / q) * u2 ** (2.0 / q)
    return np.where(integral, 0.0, u)


def _convex_side_bound(M: int, c, d, v, K) -> np.ndarray:
    """Upper bound on sum_{i<K} (c + d cot(x_i)), x_i = pi (i + v)/M, when
    the K points lie left of the zero of c + d cot and x_{K-1} - pi/(2M)
    <= pi/2 (_error_bounds): terms 0, 1 and K-1 exact, the ones between
    by their Hermite-Hadamard integral."""
    h = math.pi / M
    inner = np.maximum(K - 3, 0)
    lo = h * (1.5 + v)
    total = c * inner + d / h * np.log(np.sin(lo + h * inner) / np.sin(lo))
    for i, present in ((0, K > 0), (1, K > 1), (np.maximum(K - 1, 0), K > 2)):
        total += np.where(present, c + d / np.tan(h * (i + v)), 0.0)
    return total


def normalized_constant(M: int, q: float, worst_error: float) -> float:
    """Scale a worst error by its theoretical rate: M/ln M at q = 1,
    M^(1/q) for finite q > 1, and 1 for the supremum error."""
    if math.isinf(q):
        return worst_error
    if q == 1.0:
        return worst_error * M / math.log(M)
    return worst_error * M ** (1.0 / q)


def _check_m_list(M_list: list[int]) -> None:
    if not M_list or any(m < 3 for m in M_list):
        raise DomainError("M_list must be nonempty with all M >= 3")
    if list(M_list) != sorted(set(M_list)):
        raise DomainError("M_list must be strictly increasing")


def asymptotic_table(
    q: float,
    M_list: list[int],
    grid: GridSpec | None = None,
    *,
    n_reps: int = 0,
) -> list[AsymptoticRow]:
    """Sweep each M in an increasing list and normalize by the rate."""
    _check_m_list(M_list)
    rows = []
    for M in M_list:
        r = worst_avg_error(M, q, grid, n_reps=n_reps)
        c = normalized_constant(M, q, r.worst_error)
        rows.append(AsymptoticRow(**vars(r), normalized_constant=c))
    return rows
