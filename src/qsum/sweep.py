"""Worst-case error over Boolean means: grid sweeps and rate tables.

The supremum over all means is approximated by a grid a = k/N at large
fixed N (errors depend on the mean only through its angle, and k/2^20
resolves the angle's fractional part to ~M/2^20, ample for M up to 10^4),
augmented with the two constructions known to attain the bounds' rates.
Every result records its grid so sweeps are reproducible.

Sweeps evaluate the means of one M in blocks, after deriving all their
angles in one pass: each block of BLOCK_ELEMENTS means x outcomes is one
numpy pass of the distribution's block kernel, and of its row-wise median
step when boosted, so a block's errors come out as one-mean calls
(local_avg_error, local_sup_error, repetition_error) would give them.
The block size is fixed; it bounds the pass's temporaries, not the result.

Where errors tie mathematically, rounding picks the argmax: equal s at
q = 2, and the mirror means a and 1 - a in boosted sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .distribution import _block_errors, _block_median_errors
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
# Means x outcomes per numpy pass of an unboosted sweep: enough rows to
# amortize call overhead at small M; the pass's temporaries stay near 1 MB.
BLOCK_ELEMENTS = 2**14


@dataclass(frozen=True)
class GridSpec:
    """A set of means k/N (single N, many k) to sweep over."""

    N: int
    ks: tuple[int, ...]
    label: str

    def __post_init__(self) -> None:
        if self.N < 1 or not self.ks:
            raise DomainError("grid must have N >= 1 and at least one k")
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
    """Evenly subsampled k-grid over [0, N].

    Always includes k in {0, 1, N-1, N} (the extreme means that the
    supremum-error constructions need).  dense sweeps every k; keep N
    small for that.
    """
    if N < 2:
        raise DomainError(f"grid N must be at least 2, got {N}")
    if dense:
        ks = tuple(range(N + 1))
        return GridSpec(N, ks, f"k/{N} dense ({N + 1} points)")
    if count < 2:
        raise DomainError(f"grid count must be at least 2, got {count}")
    ks = np.unique(
        np.concatenate(
            [np.linspace(0, N, count).round().astype(int), [0, 1, N - 1, N]]
        )
    )
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
    ks, Ns, label, (errors,) = _grid_errors(M, q, grid, include_sharpness, (n_reps,))
    i = int(np.argmax(errors))
    return SweepResult(M, q, n_reps, float(errors[i]), int(ks[i]), int(Ns[i]), label)


def _grid_errors(M: int, q: float, grid: GridSpec, include_sharpness: bool, reps):
    """Errors of every mean of a sweep, for each repetition count in reps.

    Returns (ks, Ns, label, errors): the means in ascending (k, N), the
    sweep's label, and one row of errors per entry of reps, all read off
    one block-kernel pass per block of means (n = 0 takes the kernel's
    errors, n > 0 the median step on its p).
    """
    if grid.N <= M:
        raise DomainError(f"grid needs N > M, got N={grid.N}, M={M}")
    means = [(k, grid.N) for k in grid.ks]
    label = grid.label
    if include_sharpness:
        means += [(inst.k, inst.N) for inst in sharpness_instances(M)]
        label += " + sharpness"
    means.sort()
    ks, Ns = zip(*means)
    sigma, s, integral = _block_angles(ks, Ns, M)
    s = s.tolist()
    rows = max(1, BLOCK_ELEMENTS // M)
    boosted = any(n != 0 for n in reps)
    errors = np.empty((len(reps), len(means)))
    for i in range(0, len(means), rows):
        b = slice(i, i + rows)
        e, p, _, _ = _block_errors(
            M, q if 0 in reps else None, sigma[b], s[b], integral[b], ks[b], Ns[b]
        )
        a = np.array([k / N for k, N in means[b]]) if boosted else None
        for r, n in enumerate(reps):
            errors[r, b] = e if n == 0 else np.where(
                integral[b], 0.0, _block_median_errors(p, a, q, n)
            )
    return ks, Ns, label, errors


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
