"""Local L_q errors of the estimator and evaluators for its error bounds.

Each check_* function computes (a) the exact quantity under test from the
finite outcome distribution, (b) the bound's leading expression, and
(c) the bound's allowed deviation, and packs them into a BoundReport.
All computations are pure; batch checkers may run instances concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import _block_errors, _row
from .errors import DomainError
from .model import AngleSet, MeanInstance, derive_angles
from .numerics import _check_q, _gauss_jacobi, sin_power_integral

__all__ = [
    "BoundReport",
    "local_avg_error",
    "local_sup_error",
    "cot_sum",
    "check_l1_cot_sum_bound",
    "check_cot_sum_rectangle_bound",
    "check_l1_log_bound",
    "check_lq_integral_bound",
    "lq_asymptotic_main_term",
    "L1_SLACK_CONSTANT",
]

# Additive guard absorbing float noise when |observed - main| and slack
# are both at rounding level.
_GUARD = 1e-9

# Nodes of the Gauss-Jacobi rule on each panel of the q > 1 main-term
# integrals.  Every singular point off a panel lies at least a quarter of
# its length beyond an end, which bounds the rule's error by a constant
# times (1.5 + sqrt 1.25)^(-2n), about 2e-17 at n = 20 (_half_lq_integral).
_PANEL_NODES = 20

# Constant of the q = 1 local bound's deviation term, (3 pi + 2 + ln pi^2)/pi.
L1_SLACK_CONSTANT = (3.0 * math.pi + 2.0 + math.log(math.pi**2)) / math.pi


def _satisfied(observed: float, main_term: float, slack: float) -> bool:
    """The one rule of every bound: |observed - main_term| <= slack + _GUARD."""
    return abs(observed - main_term) <= slack + _GUARD


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound at one (k, N, M, q).

    satisfied <=> |observed - main_term| <= slack + 1e-9 (enforced, by
    _satisfied); details carries auxiliary recorded quantities (e.g. both
    integral orientations) as (name, value) pairs.
    """

    observed: float
    main_term: float
    slack: float
    satisfied: bool
    context: tuple[int, int, int, float]
    details: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.satisfied is not _satisfied(self.observed, self.main_term, self.slack):
            raise DomainError(
                "satisfied flag contradicts |observed - main_term| vs slack"
            )


def _report(
    observed: float,
    main_term: float,
    slack: float,
    inst: MeanInstance,
    q: float,
    details: tuple[tuple[str, float], ...] = (),
) -> BoundReport:
    ok = _satisfied(observed, main_term, slack)
    return BoundReport(
        observed, main_term, slack, ok, (inst.k, inst.N, inst.M, q), details
    )


def _check_q_open(q: float) -> None:
    """The exponent of the q > 1 main terms: q in (1, inf)."""
    if not 1.0 < q < math.inf:
        raise DomainError(f"q must lie in (1, inf), got {q!r}")


def _nonintegral_angles(inst: MeanInstance, what: str = "bound") -> AngleSet:
    """The angles of an instance whose sigma is not integral: the one
    precondition of cot_sum, of the bound checks that need s > 0 and of
    the q > 1 main term, raised as "<what> requires nonintegral sigma"."""
    ang = derive_angles(inst)
    if ang.sigma_is_integer:
        raise DomainError(f"{what} requires nonintegral sigma")
    return ang


def local_avg_error(inst: MeanInstance, q: float) -> float:
    """L_q-average of |a - output| under the outcome distribution.

    (sum_j p(j) |a - output(j)|^q)^(1/q); exactly 0 on the integral-sigma
    branch.  q must lie in [1, inf); the supremum error has its own
    routine because "max over positive-probability outcomes" does not fit
    the L_q machinery.
    """
    q = _check_q(q)
    ang = derive_angles(inst)
    return float(_block_errors(inst.M, q, *_row(inst, ang))[0][0])


def local_sup_error(inst: MeanInstance) -> float:
    """Largest |a - output(j)| over outcomes with p(j) > 1e-14."""
    ang = derive_angles(inst)
    return float(_block_errors(inst.M, math.inf, *_row(inst, ang))[0][0])


def cot_sum(inst: MeanInstance) -> float:
    """(1/M) sum_j |cot(pi (j + s) / M)| over j = 0..M-1.

    Defined only off the integral-sigma branch (s = 0 would place a
    cotangent pole at j = 0).
    """
    ang = _nonintegral_angles(inst, "cot_sum")
    M = inst.M
    # |cot(pi y/M)| is symmetric under y -> M - y; folding keeps the
    # near-pole terms at small sine arguments, where they are accurate.
    y = np.arange(M) + ang.s
    y = np.minimum(y, M - y)
    x = math.pi * y / M
    return float(np.abs(np.cos(x) / np.sin(x)).sum() / M)


def check_l1_cot_sum_bound(inst: MeanInstance) -> BoundReport:
    """q = 1 local error vs its cotangent-sum approximation.

    |e_1 - sin^2(pi s) sin(2 theta) cot_sum / M| is bounded by
    sin^2(pi s) |cos(2 theta)| / M.
    """
    ang = _nonintegral_angles(inst)
    M = inst.M
    sin2 = math.sin(math.pi * ang.s) ** 2
    observed = local_avg_error(inst, 1.0)
    main = sin2 * math.sin(2.0 * ang.theta) * cot_sum(inst) / M
    slack = sin2 * abs(math.cos(2.0 * ang.theta)) / M
    return _report(observed, main, slack, inst, 1.0)


def check_cot_sum_rectangle_bound(inst: MeanInstance) -> BoundReport:
    """cot_sum vs its integral main term, the bound behind the q = 1 rate.

    The sum is a left-rectangle rule for (1/pi) integral |cot| between
    pi(1+s)/M and pi(M-1+s)/M plus its two boundary terms; the allowed
    deviation is taken as (1/(pi M)) integral of csc^2 over the same
    range, as stated at the source.  Both integrals have closed forms,
    used here; requires M >= 3 so the integration range is nonempty.

    Caution: the stated deviation constant is falsifiable at M = 3 with
    s near 1/2 (observed ratio up to ~1.2), where the single-panel
    rectangle error reaches the pi-times-larger level that the
    rectangle-rule argument actually supports; expect honest
    satisfied=False reports in that corner.
    """
    if inst.M < 3:
        raise DomainError(f"bound requires M >= 3, got M={inst.M}")
    ang = _nonintegral_angles(inst)
    M, s = inst.M, ang.s
    observed = cot_sum(inst)
    lower_limit = math.pi * (1.0 + s) / M
    # the upper limit pi(M-1+s)/M reflects to pi(1-s)/M, where both the
    # boundary cotangent and the closed forms are evaluated accurately
    upper_reflected = math.pi * (1.0 - s) / M
    # integral of |cot| = ln(1 / (sin(pi(1+s)/M) sin(pi(1-s)/M)))
    integral_cot = -math.log(math.sin(lower_limit) * math.sin(upper_reflected))
    main = (
        1.0 / (M * math.tan(math.pi * s / M))
        + 1.0 / (M * math.tan(upper_reflected))
        + integral_cot / math.pi
    )
    # integral of csc^2 = cot(pi(1-s)/M) + cot(pi(1+s)/M)
    slack = (
        1.0 / math.tan(upper_reflected) + 1.0 / math.tan(lower_limit)
    ) / (math.pi * M)
    return _report(observed, main, slack, inst, 1.0)


def check_l1_log_bound(inst: MeanInstance) -> BoundReport:
    """q = 1 local error vs its (ln M)/M closed form, for M >= 3.

    |e_1 - (2/pi) sin^2(pi s) sin(2 theta) ln(M)/M| is bounded by
    (3 pi + 2 + ln pi^2)/(M pi) * sin(pi s).  Holds on the integral-sigma
    branch too, where both sides vanish.
    """
    if inst.M < 3:
        raise DomainError(f"bound requires M >= 3, got M={inst.M}")
    ang = derive_angles(inst)
    M = inst.M
    observed = local_avg_error(inst, 1.0)
    sin_pi_s = math.sin(math.pi * ang.s)
    main = (
        (2.0 / math.pi)
        * sin_pi_s**2
        * math.sin(2.0 * ang.theta)
        * math.log(M)
        / M
    )
    slack = L1_SLACK_CONSTANT * sin_pi_s / M
    return _report(observed, main, slack, inst, 1.0)


def _half_lq_integral(theta: float, q: float, a: float) -> float:
    """integral_a^(pi/2) sin(x)^(q-2) |sin(x + 2 theta)|^q dx, 0 <= a <= pi/2.

    Near each of its singular points z, the zero of sin at 0 (power
    e = q - 2) and the kinks z = -2 theta mod pi (e = q), the integrand is
    |x - z|^e times an analytic factor.  [a, pi/2] is cut at the kink
    inside it.  A panel is then split toward any singular point off it
    that lies nearer than a quarter of its length, which grades panels
    geometrically toward it, or else halved while longer than 4/sqrt(q),
    a few widths of the integrand's peak at large q.  A panel that ends
    at a singular point takes its power, reduced to (-1, 1), into the
    weight of a Gauss-Jacobi rule; the integer rest is a polynomial
    factor.  So every panel's rule converges geometrically, and the
    relative error stays a few ulp times q, the conditioning of the
    powers, while the integral is not tiny (for q >= 100, values below
    about 1e-25 lose relative accuracy).  sin is sampled at x <= pi/2
    and at the offset u from the nearest kink, never near pi.
    """
    p0 = math.remainder(-2.0 * theta, math.pi)  # the kink in [-pi/2, pi/2]
    # The other singular points lie at least pi/2 from [0, pi/2], farther
    # than any panel there is long.
    kinks = (p0, p0 + math.pi)
    points = (0.0, *kinks)
    half_pi = math.pi / 2.0
    cuts = sorted({a, half_pi, *(z for z in kinks if a < z < half_pi)})
    pending = list(zip(cuts, cuts[1:]))
    panels = []
    while pending:
        lo, hi = pending.pop()
        gap_lo = min((lo - z for z in points if z < lo), default=math.inf)
        gap_hi = min((z - hi for z in points if z > hi), default=math.inf)
        cut = lo + 4.0 * gap_lo if gap_lo <= gap_hi else hi - 4.0 * gap_hi
        if not lo < cut < hi and hi - lo > 4.0 / math.sqrt(q):
            cut = 0.5 * (lo + hi)
        if lo < cut < hi:
            pending += [(lo, cut), (cut, hi)]
        else:
            panels.append((lo, hi, min(kinks, key=lambda z: abs(lo + hi - 2.0 * z))))
    lo, hi, kink = np.array(panels).T
    kink_lo, kink_hi = lo == kink, hi == kink
    e_lo, e_hi = (q - 2.0) * (lo == 0.0) + q * kink_lo, q * kink_hi
    e_lo, e_hi = (np.where(e >= 1.0, e % 1.0, e) for e in (e_lo, e_hi))
    t, w = map(np.array, zip(*(_gauss_jacobi(_PANEL_NODES, alpha, beta)
                               for alpha, beta in zip(e_hi.tolist(), e_lo.tolist()))))
    half = 0.5 * (hi - lo)
    # the offsets from the ends, exact and positive, also serve as the
    # offset u from a kink at an end
    d_lo, d_hi = half[:, None] * (1.0 + t), half[:, None] * (1.0 - t)
    x = lo[:, None] + d_lo
    u = np.abs(x - kink[:, None])
    u = np.where(kink_lo[:, None], d_lo, np.where(kink_hi[:, None], d_hi, u))
    weight = d_lo ** e_lo[:, None] * d_hi ** e_hi[:, None]
    f = np.sin(x) ** (q - 2.0) * np.sin(u) ** q / weight
    sums = np.einsum("ij,ij->i", w, f)
    return math.fsum((half ** (1.0 + e_lo + e_hi) * sums).tolist())


def check_lq_integral_bound(inst: MeanInstance, q: float) -> BoundReport:
    """q > 1 local error (to the q-th power) vs its integral main term.

    Main term: sin^2(pi s)/(M pi) * integral of sin(x)^(q-2)
    |sin(x + 2 theta)|^q over x from pi*s_hi/M to pi - pi*s_lo/M.  The
    source material is inconsistent about which fractional part sits at
    which limit, so both orientations are computed and the reported
    main_term is the one deviating more from the observed value; the
    bound must hold even then.  Slack is
    (1 + 2(1-d)) pi^(q-1) sin(pi s)/M^q
    + sin^2(pi s)/M^2 * (2(1-d) + q integral_0^pi sin^(q-2)),
    with d = 1 exactly when q == 2 (a deliberately exact float test: any
    other q takes the looser branch).
    """
    _check_q_open(q)
    ang = _nonintegral_angles(inst)
    M = inst.M
    observed = local_avg_error(inst, q) ** q
    sin_pi_s = math.sin(math.pi * ang.s)
    pref = sin_pi_s**2 / (M * math.pi)

    def main(lo_offset: float, hi_offset: float) -> float:
        # the range [lo_offset, pi - hi_offset], folded about pi/2; the
        # offsets add up to pi/M, so M = 1 leaves it empty
        if M == 1:
            return 0.0
        return pref * (_half_lq_integral(ang.theta, q, lo_offset)
                       + _half_lq_integral(-ang.theta, q, hi_offset))

    hi_s, lo_s = math.pi * ang.s_hi / M, math.pi * ang.s_lo / M
    main_primary = main(hi_s, lo_s)
    main_swapped = main_primary if ang.s_lo == ang.s_hi else main(lo_s, hi_s)

    not_two = 0.0 if q == 2.0 else 1.0
    slack = (1.0 + 2.0 * not_two) * math.pi ** (q - 1.0) * sin_pi_s / M**q
    slack += sin_pi_s**2 / M**2 * (2.0 * not_two + q * sin_power_integral(q - 2.0))

    conservative = max(main_primary, main_swapped, key=lambda m: abs(observed - m))
    return _report(
        observed,
        conservative,
        slack,
        inst,
        q,
        details=(("main_primary", main_primary), ("main_swapped", main_swapped)),
    )


def full_lq_integral(theta: float, q: float) -> float:
    """integral_0^pi sin(x)^(q-2) |sin(x + 2 theta)|^q dx for q > 1.

    Folded about pi/2 so both integrable sin^(q-2) blowups (q < 2) sit at
    an integration limit of exactly 0.
    """
    _check_q_open(q)
    return _half_lq_integral(theta, q, 0.0) + _half_lq_integral(-theta, q, 0.0)


def lq_asymptotic_main_term(inst: MeanInstance, q: float) -> float:
    """Leading term of the q > 1 local error itself (not its q-th power):

    M^(-1/q) * [sin^2(pi s)/pi * integral_0^pi sin(x)^(q-2)
    |sin(x + 2 theta)|^q dx]^(1/q).

    The ratio to local_avg_error tends to 1 as M grows at fixed mean with
    s bounded away from 0.
    """
    _check_q_open(q)
    ang = _nonintegral_angles(inst, "main term")
    integral = full_lq_integral(ang.theta, q)
    sin2 = math.sin(math.pi * ang.s) ** 2
    return (sin2 / math.pi * integral) ** (1.0 / q) / inst.M ** (1.0 / q)
