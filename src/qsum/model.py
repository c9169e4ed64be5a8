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
        if self.M < 1:
            raise DomainError(f"M must be positive, got {self.M}")

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


def _snapped(theta: float, sigma: float) -> AngleSet:
    return AngleSet(theta, float(round(sigma)), 0.0, 0.0, 0.0, True)


def derive_angles(inst: MeanInstance, integer_tol: float = INTEGER_TOL) -> AngleSet:
    """Compute the AngleSet of an instance.

    sigma_is_integer holds iff sigma is within integer_tol of an integer.
    The detection needs a tolerance because arcsin of a float rarely lands
    exactly on a rational multiple of pi; the means 0, 1/2 and 1, whose
    angles are exact machine numbers, are resolved symbolically first so
    the flag is exact for them.
    """
    if not 0.0 <= integer_tol < 0.5:
        raise DomainError(f"integer_tol must lie in [0, 0.5), got {integer_tol!r}")
    M = inst.M

    # Exact rational angles: theta = 0, pi/4, pi/2.  sigma = M/4 and M/2
    # are exact floats, so integrality is decided without tolerance.
    if inst.k == 0:
        return _snapped(0.0, 0.0)
    if inst.k == inst.N:
        theta, sigma = math.pi / 2.0, M / 2.0
        if M % 2 == 0:
            return _snapped(theta, sigma)
        return AngleSet(theta, sigma, 0.5, 0.5, 0.5, False)
    if 2 * inst.k == inst.N:
        theta, sigma = math.pi / 4.0, M / 4.0
        r = M % 4
        if r == 0:
            return _snapped(theta, sigma)
        lo = r / 4.0
        return AngleSet(theta, sigma, min(lo, 1.0 - lo), lo, 1.0 - lo, False)

    theta = math.asin(math.sqrt(inst.k / inst.N))
    sigma = M * theta / math.pi
    s_lo = sigma - math.floor(sigma)
    s_hi = 1.0 - s_lo if s_lo > 0.0 else 0.0
    if min(s_lo, s_hi) <= integer_tol:
        return _snapped(theta, sigma)
    return AngleSet(theta, sigma, min(s_lo, s_hi), s_lo, s_hi, False)


def _block_angles(ks, Ns, a, M: int):
    """(sigma, s, sigma_is_integer) of the means a[i] = ks[i]/Ns[i], as
    arrays bit-identical to derive_angles at INTEGER_TOL.

    sqrt is correctly rounded in numpy as in math, so np.sqrt(a) equals
    math.sqrt per mean.  theta is libm's math.asin mapped over the roots:
    np.arcsin is numpy's own asin and differs from it in the last bit on
    about 8% of uniform inputs (numpy 2.4, x86-64 Linux).
    """
    ks, Ns = np.asarray(ks), np.asarray(Ns)
    root = np.sqrt(a)
    theta = np.fromiter(map(math.asin, root.tolist()), float, len(root))
    sigma = M * theta / math.pi
    s_lo = sigma - np.floor(sigma)
    s = np.minimum(s_lo, np.where(s_lo > 0.0, 1.0 - s_lo, 0.0))
    integral = s <= INTEGER_TOL
    # the exact rational angles 0, pi/4 and pi/2, decided without tolerance
    for exact, value in ((ks == 0, 0.0), (ks == Ns, M / 2.0), (2 * ks == Ns, M / 4.0)):
        lo = value % 1.0  # 0, 1/4, 1/2 or 3/4
        sigma[exact], s[exact], integral[exact] = value, min(lo, 1.0 - lo), lo == 0.0
    sigma[integral] = np.round(sigma[integral])
    s[integral] = 0.0
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
