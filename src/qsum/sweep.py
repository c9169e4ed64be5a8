"""Worst-case error over Boolean means: grid sweeps and rate tables.

The supremum over all means is approximated by a grid a = k/N at large
fixed N (errors depend on the mean only through its angle, and k/2^20
resolves the angle's fractional part to ~M/2^20, ample for M up to 10^4),
augmented with the two constructions known to attain the bounds' rates.
Every result records its grid so sweeps are reproducible.

A sweep's set-up is array passes: its means come as int64 arrays of k and
N in ascending (k, N), a = k/N is one division (grids have N <= 2^53, so
k and N are exact doubles and the quotient is Python's k / N), and the
angles come from model._block_angles, which keeps libm's asin per mean and
takes every row derive_angles might decide from it, so that they are
bit-identical to derive_angles.

Sweeps evaluate the means of one M in blocks, after deriving all their
angles in one pass: each block of BLOCK_ELEMENTS means x outcomes is one
numpy pass of the distribution's block kernel, and of its row-wise median
step when boosted, so a block's errors come out as one-mean calls
(local_avg_error, local_sup_error, repetition_error) would give them.
The block size is fixed; it bounds the pass's temporaries, not the result.

Every sweep screens its means first: an upper bound on each mean's error
(bounds.error_bounds) rules out the means that cannot reach the maximum,
and the kernel runs on the rest only, with the same result as a pass over
every mean.

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
from .bounds import error_bounds
from .distribution import _block_errors, _block_median_errors, _check_poles, _nearest_sines
from .model import MeanInstance, _block_angles
from .numerics import _check_int, _check_n, _check_q

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
    integers 1 <= N <= MAX_GRID_N = 2^53 and k in [0, N], each by the
    numerics integer rule."""

    N: int
    ks: tuple[int, ...]
    label: str

    def __post_init__(self) -> None:
        if _check_int(self.N, "grid N") < 1 or not self.ks:
            raise DomainError("grid must have N >= 1 and at least one k")
        if self.N > MAX_GRID_N:
            raise DomainError(f"grid N must be at most 2^53, got {self.N}")
        # the rule looks only at a value's type: one k of each type decides
        for k in dict(zip(map(type, self.ks), self.ks)).values():
            _check_int(k, "grid k")
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
    include_sharpness is set.  n_reps follows the median polynomial's n
    rule (an integer in [0, 64], else DomainError); n_reps >= 1 sweeps the
    error of the median of 2 n_reps + 1 runs (finite q only).  Ties in the
    maximum go to the smallest k (then smallest N), independent of
    evaluation order.
    """
    M = _check_int(M, "M")
    if M < 3:
        raise DomainError(f"sweeps require M >= 3, got M={M}")
    q = math.inf if q == math.inf else _check_q(q)
    n = _check_n(n_reps)
    if n != 0 and math.isinf(q):
        raise DomainError("boosted sweeps need finite q")
    if include_sharpness is None:
        include_sharpness = grid is None
    if grid is None:
        grid = default_grid()
    label, means = _sweep_means(M, grid, include_sharpness)
    i, e = _screened_max(M, q, means, n)
    ks, Ns = means[:2]
    return SweepResult(M, q, n, float(e), int(ks[i]), int(Ns[i]), label)


def _sweep_means(M: int, grid: GridSpec, include_sharpness: bool):
    """The label of a sweep and its means in ascending (k, N), as the
    arrays (ks, Ns, a, sigma, s, integral): a = k/N, and the angles as
    model._block_angles gives them."""
    if grid.N <= M:
        raise DomainError(f"grid needs N > M, got N={grid.N}, M={M}")
    ks = np.array(grid.ks, dtype=np.int64)
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

    The kernel first runs on the mean of largest bound U
    (bounds.error_bounds), whose error e, the floor, is a lower bound on the
    maximum.  The kept means are those with U (1 + _SCREEN_MARGIN) >= e;
    the floor's row is the first kept row, so the kernel then runs, in
    blocks and in order, only on the other kept means (on none when the
    floor's mean is the only one kept), and each kept mean reaches it once.
    A skipped mean's error is below e, so it can neither be nor tie the
    maximum (the mirror means a and 1 - a of a boosted tie are both kept),
    and a row's kernel result does not depend on the rows sharing its
    block: value, argmax and tie rule are those of the full pass.  Where
    error_bounds gives no bound, every mean runs.  The pole guard still
    checks every mean, in O(1) each; the drift and negativity checks run on
    every distribution the kernel builds, and a skipped mean builds none.
    """
    ks, Ns, a, sigma, s, integral = means
    _check_poles(M, _nearest_sines(M, sigma, integral), sigma, ks, Ns)
    bound = error_bounds(M, q, n, a, sigma, s, integral)
    if bound is None:
        keep = np.arange(len(ks))
        errors = _grid_errors(M, q, means, n)
    else:
        top = int(np.argmax(bound))
        floor = _grid_errors(M, q, [x[top : top + 1] for x in means], n)[0]
        keep = np.flatnonzero(bound * (1.0 + _SCREEN_MARGIN) >= floor)
        errors = np.full(len(keep), floor)
        rest = keep != top
        if rest.any():
            errors[rest] = _grid_errors(M, q, [x[keep[rest]] for x in means], n)
    i = int(np.argmax(errors))
    return int(keep[i]), errors[i]


def normalized_constant(M: int, q: float, worst_error: float) -> float:
    """Scale a worst error by its theoretical rate: M/ln M at q = 1,
    M^(1/q) for finite q > 1, and 1 for the supremum error."""
    if math.isinf(q):
        return worst_error
    if q == 1.0:
        return worst_error * M / math.log(M)
    return worst_error * M ** (1.0 / q)


def _check_m_list(M_list: list[int]) -> list[int]:
    """The M values of a list, tuple or array as Python ints: nonempty,
    each an integer of at least 3, strictly increasing."""
    Ms = [_check_int(m, "M") for m in M_list]
    if not Ms or min(Ms) < 3:
        raise DomainError("M_list must be nonempty with all M >= 3")
    if Ms != sorted(set(Ms)):
        raise DomainError("M_list must be strictly increasing")
    return Ms


def asymptotic_table(
    q: float,
    M_list: list[int],
    grid: GridSpec | None = None,
    *,
    n_reps: int = 0,
) -> list[AsymptoticRow]:
    """Sweep each M in an increasing list and normalize by the rate."""
    rows = []
    for M in _check_m_list(M_list):
        r = worst_avg_error(M, q, grid, n_reps=n_reps)
        c = normalized_constant(M, q, r.worst_error)
        rows.append(AsymptoticRow(**vars(r), normalized_constant=c))
    return rows
