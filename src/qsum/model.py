"""Problem instances and the angle quantities everything else derives from.

A problem instance is a Boolean mean a = k/N estimated with M outcomes
(M - 1 quantum queries).  The estimator's whole behaviour depends on the
input only through the angle theta = arcsin(sqrt(a)), its rescaling
sigma = M theta / pi, and the distance s of sigma to the nearest integer;
s = 0 exactly when the estimator is error-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import _check_count, _check_int

__all__ = ["MeanInstance", "AngleSet", "derive_angles", "random_instances"]

# sigma within this distance of an integer counts as integral: the one
# decision of which means the estimator answers exactly.
INTEGER_TOL = 1e-9


@dataclass(frozen=True)
class MeanInstance:
    """A rational Boolean mean k/N with outcome count M.

    k and N are carried exactly so sweeps over k are reproducible
    bit-for-bit; the float value of the mean is derived on demand.
    """

    k: int
    N: int
    M: int

    def __post_init__(self) -> None:
        for name in ("k", "N", "M"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name))
        if self.N < 1:
            raise DomainError(f"N must be positive, got {self.N}")
        if not 0 <= self.k <= self.N:
            raise DomainError(f"need 0 <= k <= N, got k={self.k}, N={self.N}")
        if not 1 <= self.M <= 2**53:  # past 2^53, sigma has no fractional bits
            raise DomainError(f"M must lie in [1, 2^53], got {self.M}")

    @property
    def a(self) -> float:
        """The mean k/N as a float."""
        return self.k / self.N


@dataclass(frozen=True)
class AngleSet:
    """Angle quantities of one instance.

    theta in [0, pi/2], sigma = M theta / pi in [0, M/2]; s_lo and s_hi are
    the nonnegative distances of sigma down to floor(sigma) and up to
    ceil(sigma), s = min(s_lo, s_hi) in [0, 1/2].  When sigma_is_integer,
    all three distances are snapped to exactly 0 and sigma to the nearest
    integer.
    """

    theta: float
    sigma: float
    s: float
    s_lo: float
    s_hi: float
    sigma_is_integer: bool


def derive_angles(inst: MeanInstance, integer_tol: float = INTEGER_TOL) -> AngleSet:
    """Compute the AngleSet of an instance: the one rule that decides which
    means the estimator answers exactly.

    sigma_is_integer holds iff sigma is within integer_tol of an integer.
    The detection needs a tolerance because arcsin of a float rarely lands
    exactly on a rational multiple of pi; the means 0, 1/2 and 1, whose
    angles are exact machine numbers, are decided with tolerance 0 so the
    flag is exact for them at any integer_tol.
    """
    if not 0.0 <= integer_tol < 0.5:
        raise DomainError(f"integer_tol must lie in [0, 0.5), got {integer_tol!r}")
    M = inst.M
    # Exact rational angles: theta = 0, pi/2, pi/4, where sigma = 0, M/2
    # and M/4 are exact floats, so their snap takes tolerance 0.
    if inst.k == 0:
        theta, sigma, integer_tol = 0.0, 0.0, 0.0
    elif inst.k == inst.N:
        theta, sigma, integer_tol = math.pi / 2.0, M / 2.0, 0.0
    elif 2 * inst.k == inst.N:
        theta, sigma, integer_tol = math.pi / 4.0, M / 4.0, 0.0
    else:
        theta = math.asin(math.sqrt(inst.k / inst.N))
        sigma = M * theta / math.pi
    s_lo = sigma - math.floor(sigma)
    s_hi = 1.0 - s_lo if s_lo > 0.0 else 0.0
    s = s_hi if s_hi < s_lo else s_lo  # min(s_lo, s_hi), without the call
    if s <= integer_tol:
        return AngleSet(theta, float(round(sigma)), 0.0, 0.0, 0.0, True)
    return AngleSet(theta, sigma, s, s_lo, s_hi, False)


def _block_angles(ks, Ns, a, M: int):
    """(sigma, s, sigma_is_integer) of the means a[i] = ks[i]/Ns[i], as
    arrays bit-identical to derive_angles at INTEGER_TOL.

    sqrt is correctly rounded in numpy as in math, so np.sqrt(a) equals
    math.sqrt per mean.  theta is libm's math.asin mapped over the roots:
    np.arcsin is numpy's own asin and differs from it in the last bit on
    about 8% of uniform inputs (numpy 2.4, x86-64 Linux).  s is
    derive_angles' arithmetic, so the rows it could decide (the exact
    means, and s within INTEGER_TOL) are all among the rows handed to it.
    """
    ks, Ns = np.asarray(ks), np.asarray(Ns)
    root = np.sqrt(a)
    theta = np.fromiter(map(math.asin, root.tolist()), float, len(root))
    sigma = M * theta / math.pi
    s_lo = sigma - np.floor(sigma)
    s = np.minimum(s_lo, 1.0 - s_lo)
    integral = np.zeros(len(s), dtype=bool)
    decided = (ks == 0) | (ks == Ns) | (2 * ks == Ns) | (s <= INTEGER_TOL)
    for i in np.flatnonzero(decided).tolist():
        ang = derive_angles(MeanInstance(int(ks[i]), int(Ns[i]), M))
        sigma[i], s[i], integral[i] = ang.sigma, ang.s, ang.sigma_is_integer
    return sigma, s, integral


def random_instances(
    rng: np.random.Generator,
    count: int,
    *,
    m_range: tuple[int, int] = (3, 4096),
    n_max: int = 2**20,
    require_noninteger: bool = False,
) -> list[MeanInstance]:
    """Draw instances with M in m_range, N in (M, n_max], k in [0, N].

    With require_noninteger, instances whose sigma is (near-)integral are
    rejected and redrawn, since several bound evaluators exclude them.
    """
    count = _check_count(count, "count", least=0)
    m_lo, m_hi = (_check_int(m, "m_range bound") for m in m_range)
    n_max = _check_int(n_max, "n_max")
    if not (1 <= m_lo <= m_hi and m_hi < n_max):
        raise DomainError(f"invalid m_range {m_range!r} for n_max {n_max}")
    out: list[MeanInstance] = []
    while len(out) < count:
        M = int(rng.integers(m_lo, m_hi + 1))
        N = int(rng.integers(M + 1, n_max + 1))
        k = int(rng.integers(0, N + 1))
        inst = MeanInstance(k, N, M)
        if require_noninteger and derive_angles(inst).sigma_is_integer:
            continue
        out.append(inst)
    return out
