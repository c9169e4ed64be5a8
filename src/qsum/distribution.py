"""Exact outcome and output distributions of the summation estimator.

The estimator returns an index j in {0, ..., M-1}; classical
post-processing maps it to the output value sin^2(pi j / M).  For a mean
a with angles (theta, sigma, s) the outcome probabilities are

    p(j) = sin^2(pi s) / (2 M^2) * (csc^2(pi (j - sigma)/M)
                                    + csc^2(pi (j + sigma)/M)),

except that integral sigma collapses the distribution to a point mass on
an index whose output equals a exactly.  Both distributions here are
immutable after construction and may be shared across threads freely.

The median of 2n+1 draws is computed in two halves: _median_points, the
atom boundaries read from their nearer tails with the n-independent
inputs of the median polynomial there, and _median_step, the polynomial's
n-dependent pass on them.  Sweeps run both per block.  The one-mean
boosted functions share a memo, _mean_base, of the 4 most recent means'
outcome distributions, folded atoms and median points, of each n's median
masses once asked for, and of |a - alpha|^q at the most recent q, so
repeated calls on one mean build each once: a (mean, n) costs one
polynomial pass; a (mean, q) one deviation table.  Its entries are
read-only arrays, safe to share across threads, and at most 4 of them are
kept, each O(M) memory for its base plus at most MAX_REPETITION_N mass
rows and one deviation row of M//2 + 1 floats (8 B each).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConsistencyError
from .model import INTEGER_TOL, AngleSet, MeanInstance, derive_angles
from .numerics import MAX_REPETITION_N, _check_int, _check_n  # noqa: F401
from .numerics import _median_inputs, _median_poly

__all__ = [
    "OutcomeDistribution",
    "OutputDistribution",
    "outcome_distribution",
    "output_value",
    "exact_error",
    "collapse_outputs",
    "event_probability",
]

_DRIFT_TOL = 1e-10
# outcomes with p(j) at or below this are outside the support of the
# supremum error
_SUPPORT_TOL = 1e-14


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities p(j) of the M outcome indices for one instance.

    normalization_drift records |sum p - 1| of the raw formula values
    before the vector was renormalized by its exact sum.
    """

    M: int
    p: np.ndarray
    instance: MeanInstance
    angles: AngleSet
    normalization_drift: float

    def __post_init__(self) -> None:
        self.p.flags.writeable = False

    def to_csv(self) -> str:
        lines = ["j,p,alpha"]
        for j in range(self.M):
            lines.append(
                f"{j},{self.p[j]:.17g},{output_value(j, self.M):.17g}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "M": self.M,
                "k": self.instance.k,
                "N": self.instance.N,
                "p": [float(v) for v in self.p],
            }
        )


@dataclass(frozen=True)
class OutputDistribution:
    """Collapsed distribution over the output values alpha.

    alphas is nondecreasing: rounding of sin^2 can tie two neighbouring
    outputs, though not below M = 2.5e8.  cdf_below[i] = sum of rho over
    the atoms before i, strictly below alphas[i] unless tied (the
    left-closed cumulative, 0 at alpha = 0).
    """

    alphas: np.ndarray
    rhos: np.ndarray
    cdf_below: np.ndarray
    instance: MeanInstance
    angles: AngleSet

    def __post_init__(self) -> None:
        for arr in (self.alphas, self.rhos, self.cdf_below):
            arr.flags.writeable = False

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(float(a), float(r)) for a, r in zip(self.alphas, self.rhos)]

    def cdf(self, alpha: float) -> float:
        """F(alpha) = total mass strictly below alpha."""
        i = int(np.searchsorted(self.alphas, alpha, side="left"))
        return float(self.cdf_below[i]) if i < len(self.alphas) else 1.0


def output_value(j: int, M: int) -> float:
    """Output sin^2(pi j / M) of outcome index j.

    Read from the output table at min(j, M - j), so the symmetry under
    j <-> M - j holds exactly, not merely to rounding, and the value has
    the same bits as in the collapsed, median and sampled distributions.
    The first call at an M builds that table, O(M) time and memory (8 B
    per index up to M/2), kept for the 16 most recent M.
    """
    M = _check_int(M, "M", 1)
    j = _check_int(j, "index", 0, M - 1)
    return float(_index_tables(M)[2][min(j, M - j)])


@functools.lru_cache(maxsize=16)
def _index_tables(M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices j = 0..M-1 as floats, (M - j) mod M, and the distinct
    outputs sin^2(pi j / M) of j = 0..M//2, increasing."""
    j = np.arange(M)
    alphas = np.sin(np.pi * j[: M // 2 + 1] / M) ** 2
    j, partner = j.astype(float), -j % M
    j.flags.writeable = partner.flags.writeable = alphas.flags.writeable = False  # shared
    return j, partner, alphas


class _MeanBase(NamedTuple):
    """The n-independent half of one mean's boosted errors, read-only,
    with the median masses of each n asked for so far (see _base_masses)
    and the deviations of the most recent q (see _base_devs)."""

    d: OutcomeDistribution
    rhos: np.ndarray  # folded atoms, one row
    points: tuple  # their _median_points
    masses: dict  # n -> read-only median masses, one row
    devs: list  # [(q, read-only |a - alpha|^q, one row)], replaced as a whole


@functools.lru_cache(maxsize=4)
def _mean_base(inst: MeanInstance) -> _MeanBase:
    """One mean's checked outcome distribution, folded atoms and median
    points, kept for the 4 most recent means: a curve over n and q of one
    mean, or a Monte Carlo cross-check of it, builds them once.  Each
    entry also keeps the median masses of the n values asked for, at most
    MAX_REPETITION_N rows of M//2 + 1 floats, and one deviation row,
    freed with the entry."""
    d = outcome_distribution(inst)
    rhos = _fold_atoms(d.p[None])
    points = _median_points(rhos)
    for arr in (rhos, *points):
        if arr is not None:  # an input mask that selects nothing is None
            arr.flags.writeable = False
    return _MeanBase(d, rhos, points, {0: rhos}, [(None, None)])


def _base_masses(base: _MeanBase, n: int) -> np.ndarray:
    """The median masses of 2n+1 draws (one row, read-only) of a memoized
    mean, for an n already checked: one polynomial pass on the first ask
    of each n, none after.  n = 0 is the folded atoms themselves.  Threads
    that race on a new n compute the same bits; the first to store wins."""
    masses = base.masses.get(n)
    if masses is None:
        masses = _median_step(base.rhos, base.points, n)
        masses.flags.writeable = False
        masses = base.masses.setdefault(n, masses)
    return masses


def _base_devs(base: _MeanBase, q: float) -> np.ndarray:
    """|a - alpha|^q over the outputs of j = 0..M//2 (one row, read-only)
    of a memoized mean, for a q already checked: built on the first ask
    after another q, none after.  The slot holds one (q, row) pair and is
    replaced as a whole, so a thread racing on it reads a matching pair."""
    last_q, devs = base.devs[0]
    if last_q != q:
        devs = _deviations(np.array([base.d.instance.a]), base.d.M, q)
        devs.flags.writeable = False
        base.devs[0] = (q, devs)
    return devs


def _folded_sines(j: np.ndarray, sigma: np.ndarray, M: int | None = None) -> np.ndarray:
    """|sin(pi (j - sigma)/M)| for the M indices j, one row per sigma, via
    the distance of j - sigma to the nearest multiple of M.  With M given,
    j may be any indices in [0, M), one row of them per sigma.

    The subtraction j - sigma is exact precisely when its result is small,
    so the near-pole factors keep full relative accuracy and vanish
    exactly on the integral-sigma branch; a plain mod-M reduction would
    round tiny negative offsets at the ulp of M and lose them.  The other
    factor needs no second pass: |sin(pi (j + sigma)/M)| is this one at
    index (M - j) mod M, from the same exact subtraction.
    """
    M = len(j) if M is None else M
    d = np.abs(j - sigma[:, None])  # in [0, M)
    np.minimum(d, M - d, out=d)  # folded into [0, M/2]
    d *= np.pi
    d /= M
    return np.sin(d, out=d)  # nonnegative on [0, pi/2]


def _nearest_sines(M: int, sigma: np.ndarray, integral: np.ndarray) -> np.ndarray:
    """Each row's smallest folded sine, as _folded_sines computes it, in
    O(1) per row, and 1 on integral rows (which the pole guard skips).

    The smallest factor sits at the index j = round(sigma) nearest sigma,
    where j - sigma is exact and already within [0, 1/2], so the fold to
    [0, M/2] is a no-op; the rest is the kernel's float operations.  A
    pole only matters when that distance is below ~1e-9, and every other
    index is then more than 1/2 away.
    """
    d = np.abs(np.round(sigma) - sigma)
    d *= np.pi
    d /= M
    np.sin(d, out=d)
    d[integral] = 1.0
    return d


def _check_poles(M: int, fmin: np.ndarray, sigma: np.ndarray, ks, Ns) -> None:
    """The pole guard: raise ConsistencyError at the first row whose
    smallest folded sine fmin lies below half of sin(pi INTEGER_TOL / M),
    a pole that the integer detection missed."""
    bad = fmin < 0.5 * math.sin(math.pi * INTEGER_TOL / M)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConsistencyError(
            f"near-pole outcome term (|sin| = {fmin[i]:.3e}) for "
            f"k={ks[i]}, N={Ns[i]}, M={M} with "
            f"sigma={float(sigma[i])!r} not flagged integral at "
            f"INTEGER_TOL={INTEGER_TOL:g}"
        )


def _block_errors(
    M: int, q: float | None, sigma: np.ndarray, s, integral: np.ndarray, ks, Ns
):
    """Outcome probabilities and errors of a block of means ks[i]/Ns[i]
    sharing M, with angles sigma, s (any float sequence) and the
    integral-sigma flag as model._block_angles gives them, in one numpy
    pass over (rows x M) arrays.

    Returns (errors, p, err, drift): the per-row L_q error (at q = inf the
    largest error over p > _SUPPORT_TOL), the renormalized p(j),
    |a - output(j)| in product form (errors and err are None when q is
    None), and the drift |sum p - 1| that renormalization absorbed.  Each
    row's closed-form p(j) is checked for nonnegativity and unit mass
    (drift below 1e-10) before it is divided by its computed sum.

    An integral-sigma row is a point mass on the canonical index realizing
    output = a (the smaller of sigma mod M and M - sigma mod M; both map to
    the same output), where the product form vanishes, so its error is
    exactly 0.  Any other sigma lies more than INTEGER_TOL from every
    integer, so its folded sines all exceed sin(pi INTEGER_TOL / M); one
    below half of that is a pole the integer detection missed.
    """
    points = integral.nonzero()[0]
    j, partner, _ = _index_tables(M)
    f1 = _folded_sines(j, sigma)
    err = None if q is None else f1 * f1[:, partner]
    if len(points):
        f1[points] = 1.0
    _check_poles(M, f1.min(axis=1), sigma, ks, Ns)
    # sin^2(pi s) / (2 M^2), which is 0 on integral rows
    amp = np.array([math.sin(math.pi * x) ** 2 / (2.0 * M * M) for x in s])
    p = f1**-2.0
    p += p[:, partner]
    p *= amp[:, None]
    if len(points):
        m = np.round(sigma[points]).astype(np.int64) % M
        p[points, np.minimum(m, (M - m) % M)] = 1.0
    if p.min() < -1e-12:
        raise ConsistencyError(f"negative outcome probability {p.min()!r}")
    total = p.sum(axis=1)
    drift = np.abs(total - 1.0)
    if drift.max() >= _DRIFT_TOL:
        i = int(np.argmax(drift >= _DRIFT_TOL))
        raise ConsistencyError(
            f"outcome normalization drift {drift[i]:.3e} for k={ks[i]}, "
            f"N={Ns[i]}, M={M}"
        )
    p /= total[:, None]
    if q is None:
        errors = None
    elif math.isinf(q):
        errors = np.where(p > _SUPPORT_TOL, err, 0.0).max(axis=1)
    elif q == 1.0:
        errors = (p * err).sum(axis=1)
    else:
        errors = (p * err**q).sum(axis=1) ** (1.0 / q)
    return errors, p, err, drift


# one-row integral flags for the one-mean callers; the kernel only reads them
_ROW_FLAGS = (np.array([False]), np.array([True]))


def _row(inst: MeanInstance, ang: AngleSet):
    """The block-kernel arguments (sigma, s, integral, ks, Ns) of one mean."""
    flag = _ROW_FLAGS[ang.sigma_is_integer]
    return np.array([ang.sigma]), (ang.s,), flag, (inst.k,), (inst.N,)


def _fold_atoms(p: np.ndarray) -> np.ndarray:
    """Fold p(j) and p(M - j), which share the output of index j, along
    the last axis: entry j of the result is the mass of output j."""
    M = p.shape[-1]
    half = M // 2
    rhos = p[..., : half + 1].copy()
    rhos[..., 1 : M - half] += p[..., :half:-1]
    return rhos


def _median_points(rhos: np.ndarray) -> tuple:
    """The n-independent half of the median step, along the last axis of
    the atoms rhos: the mask of the boundaries read from the right tail
    (never empty: the last boundary's left cumulative is the total mass 1),
    the mask of the one atom whose boundaries straddle the switch between
    the two tails, then the _median_inputs of each boundary's tail point.

    Each boundary is read from its nearer tail, so no difference is taken
    between two values near 1: where the left cumulative F <= 1/2 the point
    is F; beyond it, it is the right tail G, summed from the right.
    """
    shape = rhos.shape[:-1] + (rhos.shape[-1] + 1,)
    left, right = np.zeros(shape), np.zeros(shape)
    np.cumsum(rhos, axis=-1, out=left[..., 1:])
    np.cumsum(rhos[..., ::-1], axis=-1, out=right[..., -2::-1])
    near = left <= 0.5
    inputs = _median_inputs(np.where(near, left, right))
    return (~near, near[..., :-1] & ~near[..., 1:], *inputs)


def _median_step(rhos: np.ndarray, points, n: int) -> np.ndarray:
    """Atom masses of the median of 2n+1 draws from the atoms rhos, along
    the last axis, given their _median_points and an n already checked:
    the median CDF I at each boundary, differenced.  n = 0 keeps the
    atoms, which CDF differences would round.

    A near boundary's value is I(F); a far one's is I(F) - 1 = -I(G).  All
    these points go through one polynomial pass; they are cumulative sums
    of nonnegative masses, so they already lie in [0, 1].  The switch atom
    gets the 1 back, so the masses still telescope to I(1) - I(0) = 1.  A
    difference of two rounded tail values can fall just below 0 (by up to
    2.4e-291 where both are near 0); such masses are clipped to 0.
    """
    if n == 0:
        return rhos.copy()
    far, switch, *inputs = points
    tails = _median_poly(inputs, n)
    np.negative(tails, out=tails, where=far)
    masses = np.subtract(tails[..., 1:], tails[..., :-1])
    masses[switch] += 1.0
    return np.maximum(masses, 0.0, out=masses)


def _median_masses(rhos: np.ndarray, n: int) -> np.ndarray:
    """Atom masses of the median of 2n+1 draws: both halves of the median
    step back to back (n = 0 needs no points)."""
    n = _check_n(n)
    return _median_step(rhos, _median_points(rhos) if n else None, n)


def _deviations(a: np.ndarray, M: int, q: float) -> np.ndarray:
    """|a - alpha|^q, one row per mean a, over the outputs alpha of
    j = 0..M//2."""
    return np.abs(a[:, None] - _index_tables(M)[2]) ** q


def _median_lq(masses: np.ndarray, devs: np.ndarray, q: float) -> np.ndarray:
    """Per-row L_q error of the medians with the atom masses (rows x
    (M//2 + 1)), under their _deviations at q."""
    return np.einsum("ij,ij->i", masses, devs) ** (1.0 / q)


def _block_median_errors(p: np.ndarray, a: np.ndarray, q: float, n: int) -> np.ndarray:
    """Per-row L_q error of the median of 2n+1 runs, for outcome
    probabilities p (rows x M) of the means a, in one polynomial pass."""
    masses = _median_masses(_fold_atoms(p), n)
    return _median_lq(masses, _deviations(a, p.shape[-1], q), q)


def exact_error(inst: MeanInstance, j: int) -> float:
    """|a - output(j)| via the product form |sin(pi(j-sigma)/M) sin(pi(j+sigma)/M)|."""
    j = _check_int(j, "index", 0, inst.M - 1)
    return float(error_vector(inst, derive_angles(inst))[j])


def error_vector(inst: MeanInstance, angles: AngleSet) -> np.ndarray:
    """exact_error for all j at once: the block kernel's product form for
    one row.  The angles are taken as given, with no integer tolerance
    behind them, so no pole guard applies."""
    j, partner, _ = _index_tables(inst.M)
    f = _folded_sines(j, np.array([angles.sigma]))[0]
    return f * f[partner]


def outcome_distribution(inst: MeanInstance) -> OutcomeDistribution:
    """Construct the exact outcome distribution of an instance.

    Integral sigma yields a point mass on an index whose output equals a.
    Otherwise the closed-form p(j) is evaluated, checked and renormalized
    by its computed sum, so downstream expectations see an exact
    probability vector; the drift absorbed this way is recorded.
    """
    ang = derive_angles(inst)
    _, p, _, drift = _block_errors(inst.M, None, *_row(inst, ang))
    return OutcomeDistribution(inst.M, p[0], inst, ang, float(drift[0]))


def collapse_outputs(d: OutcomeDistribution) -> OutputDistribution:
    """Fold p(j) and p(M-j), which share the output sin^2(pi j/M), into
    atoms over distinct outputs, and tabulate the strict-below CDF.

    On the integral-sigma branch the single atom sits exactly at the mean.
    Otherwise the atoms are the outputs of j = 0..floor(M/2), kept even
    where sin^2 rounds neighbours to one value: that first happens past
    M = 2.5e8, where the outcome arrays alone need gigabytes, and a tie
    changes neither cdf() nor the median's mass at any output value.
    """
    M = d.M
    if d.angles.sigma_is_integer:
        alphas = np.array([d.instance.a])
        rhos = np.array([1.0])
    else:
        alphas = _index_tables(M)[2]
        rhos = _fold_atoms(d.p)
    cdf_below = np.concatenate(([0.0], np.cumsum(rhos)[:-1]))
    return OutputDistribution(alphas, rhos, cdf_below, d.instance, d.angles)


def event_probability(d: OutcomeDistribution, indices: Iterable[int]) -> float:
    """Total outcome probability of a set of indices."""
    idx = {_check_int(j, "index", 0, d.M - 1) for j in indices}
    return float(sum(d.p[j] for j in idx))
