"""Median-of-repetitions boosting and its exact distribution.

Running the estimator 2n+1 times and returning the median of the outputs
concentrates the distribution around the true mean.  For a base output
distribution with atoms alpha and strict-below CDF F, the median's atom
probabilities are exact incomplete-beta differences

    rho_n(alpha) = I(F(alpha) + rho(alpha)) - I(F(alpha)),

with I the CDF of the median of 2n+1 uniforms.  I is evaluated once per
atom boundary, from the nearer tail: at F below the median, and through
I(F) = 1 - I(G) at the mass G to the right beyond it, so no mass is a
difference of two values near 1.  The masses telescope to
I(1) - I(0) = 1 up to the rounding of each difference.

The boundaries, the tail each is read from, the atom at the switch and
the polynomial's inputs at the boundaries do not depend on n.
repetition_error, and the sampler's one-mean functions, take them with
the outcome distribution and its atoms from a memo of the 4 most recent
means (distribution._mean_base), so a curve over n and q of one mean
builds that base once.  The entry also keeps each n's median masses once
computed, since they do not depend on q, and the deviations |a - alpha|^q
of the most recent q, which do not depend on n: a (mean, n) costs one
polynomial pass; a (mean, q) one deviation table.  An entry holds at most
MAX_REPETITION_N mass rows and one deviation row of M//2 + 1 floats.  The
memo's entries are read-only, so sharing them across threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import OutputDistribution, _base_devs, _base_masses, _mean_base, _median_lq
from .distribution import _median_masses
from .model import MeanInstance
from .numerics import MAX_REPETITION_N, _check_n, _check_q  # noqa: F401
from .sweep import (
    GridSpec,
    _check_m_list,
    _screened_max,
    _sweep_means,
    default_grid,
    normalized_constant,
)

__all__ = [
    "MedianDistribution",
    "RepetitionRow",
    "median_distribution",
    "repetition_error",
    "check_repetition_theorem",
]

# Default grid for repetition-theorem sweeps; the worst case sits near
# the same means as the base sweep, so a coarser grid than the base
# default resolves it while keeping the table interactive.
REPS_GRID_COUNT = 2000


@dataclass(frozen=True)
class MedianDistribution:
    """Distribution of the median of 2n+1 independent runs."""

    n: int
    alphas: np.ndarray
    rhos: np.ndarray
    base: OutputDistribution

    def __post_init__(self) -> None:
        self.alphas.flags.writeable = False
        self.rhos.flags.writeable = False

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(float(a), float(r)) for a, r in zip(self.alphas, self.rhos)]


@dataclass(frozen=True)
class RepetitionRow:
    """One M of a repetition-theorem table: worst boosted error with its
    e*M product, against the unboosted worst error and its rate
    normalization."""

    M: int
    q: float
    n: int
    worst_rep_error: float
    rep_error_times_m: float
    worst_base_error: float
    base_normalized: float


def median_distribution(base: OutputDistribution, n: int) -> MedianDistribution:
    """Exact distribution of the median of 2n+1 draws from base.

    n = 0 reproduces the base atoms exactly.  For n > 0 each mass is a
    difference of the median CDF at its atom's two boundaries, each read
    from its nearer tail, so small masses on either side of the median
    keep their relative accuracy; the masses sum to 1 up to rounding, by
    telescoping.
    """
    rhos = _median_masses(base.rhos, n)
    return MedianDistribution(int(n), base.alphas.copy(), rhos, base)


def repetition_error(inst: MeanInstance, q: float, n: int) -> float:
    """L_q-average of |a - median output| under 2n+1 repetitions.

    Matches local_avg_error at n = 0 and is exactly 0 on the
    integral-sigma branch (the base is already a point mass at the mean);
    a one-row case of the boosted sweep's median step, on the mean's
    memoized base, median masses and deviations.
    """
    q = _check_q(q)
    n = _check_n(n)
    base = _mean_base(inst)
    if base.d.angles.sigma_is_integer:
        return 0.0
    return float(_median_lq(_base_masses(base, n), _base_devs(base, q), q)[0])


def check_repetition_theorem(
    q: float, M_list: list[int], grid: GridSpec | None = None
) -> list[RepetitionRow]:
    """Tabulate the boosted worst error with n = ceil(q) + 1 repetitions.

    The e*M column staying bounded while the n = 0 column grows at its
    M^(1-1/q) (or ln M) rate is the property the acceptance suite
    asserts; the absolute constant is reported, not asserted, because no
    closed-form value for it is available.  Each column is a screened
    sweep's maximum (sweep._screened_max), equal to a pass over every mean.
    """
    q = _check_q(q)
    M_list = _check_m_list(M_list)
    n = math.ceil(q) + 1
    grid = default_grid(count=REPS_GRID_COUNT) if grid is None else grid
    rows = []
    for M in M_list:
        means = _sweep_means(M, grid, True)[1]
        worst_base = float(_screened_max(M, q, means, 0)[1])
        worst_rep = float(_screened_max(M, q, means, n)[1])
        rows.append(
            RepetitionRow(
                M,
                q,
                n,
                worst_rep,
                worst_rep * M,
                worst_base,
                normalized_constant(M, q, worst_base),
            )
        )
    return rows
