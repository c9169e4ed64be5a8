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

Every sweep screens its means first: an upper bound on each mean's error
rules out the means that cannot reach the maximum, and the kernel runs on
the rest only, with the same result as a pass over every mean.  The
unboosted bound (_error_bounds) is O(1) per mean.  It is exact at q = 2;
at q = 1 it is the cotangent sum split at its zero, exact up to M = 6 and
within 0.3% above; between them it is Hoelder's interpolation of the two,
and above q = 2 max(a, 1 - a) times the q = 2 value.  On the default grid
the kernel sees 2 to 52 of its 10^4 means at q = 1 and q = 2, and 4-27%
at q = 1.5.  The boosted bound (_median_error_bounds) reads the median's
tails through the median polynomial, exact on 4 atoms each side of the
mean and bounded in closed form beyond, from O(log M) columns per mean.
At n = ceil(q) + 1 the kernel sees 1 to 3 of the repetition theorem's
2000-odd means at M = 86 and 342, and at most 9 of the default grid's
10^4 from M = 86 to 1366; at n = 1 it sees more (27-32% at q = 3), as
the median's tails are heavier.  Where the boosted bound has more columns
than the median step (M <= 29, but for 26 and 27) it saves no time, and
the sweep runs every mean.

Where errors tie mathematically, rounding picks the argmax.  At q = 2 the
error is exactly |sin(pi s)| / sqrt(2 M), a function of s alone, so means
with equal s tie exactly; in boosted sweeps the mirror means a and 1 - a
tie.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .distribution import _block_errors, _block_median_errors, _check_poles, _folded_sines
from .distribution import _index_tables, _nearest_sines
from .model import MeanInstance, _block_angles
from .numerics import _check_int, _check_n, _median_cdf

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
        if _check_int(self.N, "grid N") < 1 or not self.ks:
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


@functools.lru_cache(maxsize=4, typed=True)
def default_grid(
    N: int = DEFAULT_GRID_N, count: int = DEFAULT_GRID_COUNT, dense: bool = False
) -> GridSpec:
    """Evenly subsampled k-grid over [0, N], for 2 <= N <= MAX_GRID_N = 2^53.

    Always includes k in {0, 1, N-1, N} (the extreme means that the
    supremum-error constructions need).  dense sweeps every k; keep N
    small for that.  The grid is frozen, so the 4 most recent are kept
    and shared: a sweep per M with no grid, or a repetition-theorem row
    per M, builds its grid once.
    """
    if _check_int(N, "grid N") < 2:
        raise DomainError(f"grid N must be at least 2, got {N}")
    if N > MAX_GRID_N:
        raise DomainError(f"grid N must be at most 2^53, got {N}")
    if dense:
        ks = tuple(range(N + 1))
        return GridSpec(N, ks, f"k/{N} dense ({N + 1} points)")
    if _check_int(count, "grid count") < 2:
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
    if _check_int(M, "M") < 3:
        raise DomainError(f"sweeps require M >= 3, got M={M}")
    if math.isnan(q) or q < 1.0:
        raise DomainError(f"q must lie in [1, inf], got {q!r}")
    if n_reps != 0 and math.isinf(q):
        raise DomainError("boosted sweeps need finite q")
    if include_sharpness is None:
        include_sharpness = grid is None
    if grid is None:
        grid = default_grid()
    n = 0 if n_reps == 0 else _check_n(n_reps)
    label, means = _sweep_means(M, grid, include_sharpness)
    i, e = _screened_max(M, q, means, n)
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


def _grid_errors(M: int, q: float, means, n: int) -> np.ndarray:
    """Errors of the means (as _sweep_means gives them) under 2n+1 runs, one
    block-kernel pass per block of means (n = 0 takes the kernel's errors,
    n > 0 the median step on its p)."""
    ks, Ns, a, sigma, s, integral = means
    rows = max(1, BLOCK_ELEMENTS // M)
    errors = np.empty(len(ks))
    for i in range(0, len(ks), rows):
        b = slice(i, i + rows)
        e, p, _, _ = _block_errors(
            M, None if n else q, sigma[b], s[b].tolist(), integral[b], ks[b], Ns[b]
        )
        if n:
            e = np.where(integral[b], 0.0, _block_median_errors(p, a[b], q, n))
        errors[b] = e
    return errors


# Relative slack of the screen: 10 x distribution._DRIFT_TOL, far above the
# kernel's rounding and the renormalization it absorbs, so no kernel error
# exceeds its bound times (1 + _SCREEN_MARGIN).  A median's tail moves by up
# to n + 1 times the drift; on the default grid up to M = 10^4 the drift is
# below 3e-15.
_SCREEN_MARGIN = 1e-9


def _screened_max(M: int, q: float, means, n: int) -> tuple[int, float]:
    """Index and value of the largest error of the means under 2n+1 runs,
    the first in order at a tie, from the kernel on as few means as a
    bound allows.

    The kernel first runs on the mean of largest bound U (_error_bounds
    unboosted, _median_error_bounds boosted), whose error e is a lower
    bound on the maximum; then, in blocks and in order, on every mean with
    U (1 + _SCREEN_MARGIN) >= e.  A skipped mean's error is below e, so it
    can neither be nor tie the maximum (the mirror means a and 1 - a of a
    boosted tie are both kept), and a row's kernel result does not depend
    on the rows sharing its block: value, argmax and tie rule are those of
    the full pass.  The pole guard still checks every mean, in O(1) each;
    the drift and negativity checks run on every distribution the kernel
    builds, and a skipped mean builds none.

    The boosted bound is evaluated in blocks of about BLOCK_ELEMENTS / 2
    entries, which measured fastest.  A boosted row whose bound has more
    columns than the median step's floor(M/2) + 1 runs the full pass:
    measured on check_repetition_theorem's grid (2 cores, Python 3.11.7,
    numpy 2.4.6), screening was slower at M = 6 and 14, level at M = 22
    (14 columns against 12), and faster from M = 26 (14 against 14) on.
    """
    ks, Ns, a, sigma, s, integral = means
    _check_poles(M, _nearest_sines(M, sigma, integral), sigma, ks, Ns)
    columns = 2 * len(_bound_offsets(M)) if n else 0
    if columns > M // 2 + 1:
        keep = np.arange(len(ks))  # the bound would cost as much as the kernel
    else:
        if n:
            rows = max(1, BLOCK_ELEMENTS // (2 * columns))
            bound = np.concatenate([
                _median_error_bounds(M, q, n, *(x[i : i + rows] for x in (a, sigma, s, integral)))
                for i in range(0, len(ks), rows)
            ])
        else:
            bound = _error_bounds(M, q, a, sigma, s, integral)
        top = int(np.argmax(bound))
        floor = _grid_errors(M, q, [x[top : top + 1] for x in means], n)[0]
        keep = np.flatnonzero(bound * (1.0 + _SCREEN_MARGIN) >= floor)
    errors = _grid_errors(M, q, [x[keep] for x in means], n)
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


# Atoms on each side of a mean that the boosted bound keeps exact; its tail
# blocks beyond them start at offsets that grow by a factor of 1.5.
_WINDOW = 4


def _bound_offsets(M: int) -> np.ndarray:
    """Offsets from a mean's first atom on one side: the _WINDOW exact
    atoms, then the tail breakpoints from _WINDOW on, up to floor(M/2)."""
    out = list(range(_WINDOW))
    o = _WINDOW
    while o <= M // 2:
        out.append(o)
        o = math.ceil(1.5 * o)
    return np.array(out)


def _median_error_bounds(
    M: int, q: float, n: int, a: np.ndarray, sigma: np.ndarray, s: np.ndarray, integral: np.ndarray
) -> np.ndarray:
    """Upper bounds U on the L_q errors of the median of 2n+1 runs at the
    means a, from 2 len(_bound_offsets(M)) columns each, for every n >= 1
    and q >= 1.

    The folded outputs are alpha_i = sin^2(pi i/M), i = 0 .. R = M // 2,
    increasing, and read from distribution._index_tables; the first above
    a is alpha_i0, i0 = floor(sigma) + 1, and d_i = |alpha_i - a|^q.  With
    G+(i) = P(X >= alpha_i), G-(i) = P(X <= alpha_i) for one run X, and B_n
    the median polynomial (numerics._median_cdf), the median of 2n+1 runs
    is >= alpha_i exactly when n+1 of them are, so P(med >= alpha_i) =
    B_n(G+(i)).  Abel summation of e_n^q = sum_i m_i d_i over the median's
    masses m_i then gives, exactly,

        sum_{i >= i0} m_i d_i = sum_{i >= i0} (d_i - d_{i-1}) B_n(G+(i)),

    with d_{i0-1} = 0, and the mirror sum over i < i0 with G-.  Every
    difference is >= 0 and B_n increases, so upper bounds on G+ and G-
    give one on e_n^q.
      Window: the _WINDOW atoms on each side of a are exact, rho_i = w_i C
    (csc^2 h(i - sigma) + csc^2 h(i + sigma)), with C = sin^2(pi s)/(2
    M^2), h = pi/M and w_i = 2 except at i = 0 and i = M/2, where it is 1;
    their sines are the kernel's folded ones.
      Tails: G+(b) = C sum_{j=b..M-b} (csc^2 h(j - sigma) + csc^2 h(j +
    sigma)) over unfolded outcomes, and G-(b) = 2 C sum_{j=-b..b} csc^2
    h(j - sigma).  csc^2 is convex on each interval the sums run over, so
    by Hermite-Hadamard each term is at most its mean over the cell of
    width h around it, and the cells telescope: for b >= sigma + 1/2,
    G+(b) <= C/h [cot h(b - sigma - 1/2) - cot h(M - b - sigma + 1/2) +
    cot h(b + sigma - 1/2) - cot h(M - b + sigma + 1/2)], and since cot(pi
    - x) = -cot x the two halves are equal, so G+(b) <= 2 C/h [cot h(b -
    sigma - 1/2) + cot h(b + sigma - 1/2)].  For b <= sigma - 1/2, G-(b)
    <= 2 C/h [cot h(sigma - b - 1/2) - cot h(sigma + b + 1/2)].  The tail
    breakpoints sit at _bound_offsets beyond the window, more than 3.5 from
    sigma, so no cotangent is near a pole; over each block [b_k, b_k+1),
    G+(i) <= G+(b_k), and the block adds at most (d_{b_k+1 - 1} - d_{b_k -
    1}) B_n(min(1, bound on G+(b_k))).  A window atom's tail is the exact
    window atoms beyond it plus the first breakpoint's bound.
      The bound is finite for every n and q.  Where every atom lies in
    the windows it is exact up to rounding; elsewhere the Hermite-Hadamard
    cells keep it above e_n by more than the kernel's rounding.  At the
    theorem's n = ceil(q) + 1 it leaves 1-3 of the 2003 means of
    check_repetition_theorem's grid to the kernel at M = 86 and 342.
    Integral sigma: the error is exactly 0, and so is U.
    """
    R, W = M // 2, _WINDOW
    h = math.pi / M
    c = np.sin(np.pi * s) ** 2 / (2.0 * M * M)
    sigma = np.where(integral, 0.5, sigma)  # finite columns; integral rows are 0 below
    # arrays are (side, column, mean): each side's boundaries, right then
    # left, are the atoms at the offsets from its first atom, i0 or i0 - 1,
    # then an offset past its last atom
    side = np.array([1, -1])[:, None, None]
    first = np.floor(sigma).astype(np.int64) + (side > 0)
    cols = first + side * np.append(_bound_offsets(M), M)[:, None]
    valid = (cols >= 0) & (cols <= R)
    i = np.clip(cols, 0, R)
    # the exact window atoms, from the kernel's folded sines
    near = i[:, :W].reshape(2 * W, -1)
    f = _folded_sines(np.concatenate([near, -near % M]).T.astype(float), sigma, M).T
    f *= f
    csc2 = (1.0 / f[: 2 * W] + 1.0 / f[2 * W :]).reshape(2, W, -1)
    w = np.where((i[:, :W] == 0) | (2 * i[:, :W] == M), 1.0, 2.0)
    rho = w * c * csc2 * valid[:, :W]
    # the tail bounds at the breakpoints; the second cotangent takes the
    # clipped column, whose argument is not 0 past the side's end either
    cot = 1.0 / np.tan(h * (side * (cols[:, W:-1] - sigma) - 0.5))
    cot += 1.0 / np.tan(h * (side * (i[:, W:-1] + sigma) - 0.5))
    tails = np.empty((2, cols.shape[1] - 1, len(sigma)))
    tails[:, W:] = 2.0 / h * c * cot * valid[:, W:-1]
    # a window atom's tail: the window atoms from it on, then the first bound
    acc = tails[:, W] if tails.shape[1] > W else 0.0
    for t in range(W - 1, -1, -1):
        acc = acc + rho[:, t]
        tails[:, t] = acc
    # d at the last atom before each boundary past the first (the side's
    # last atom at its end), differenced from d = 0 before its first atom
    ends = np.clip(cols[:, 1:], -1, R + 1) - side
    d = np.diff(np.abs(a - _index_tables(M)[2][ends]) ** q, axis=1, prepend=0.0)
    total = np.einsum("ijk,ijk->k", d, _median_cdf(np.minimum(tails, 1.0), n))
    return np.where(integral, 0.0, total ** (1.0 / q))


def normalized_constant(M: int, q: float, worst_error: float) -> float:
    """Scale a worst error by its theoretical rate: M/ln M at q = 1,
    M^(1/q) for finite q > 1, and 1 for the supremum error."""
    if math.isinf(q):
        return worst_error
    if q == 1.0:
        return worst_error * M / math.log(M)
    return worst_error * M ** (1.0 / q)


def _check_m_list(M_list: list[int]) -> None:
    if not M_list or any(_check_int(m, "M") < 3 for m in M_list):
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
