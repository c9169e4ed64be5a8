"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its headline numbers.  Tolerances are pinned here and
nowhere else; seeds are fixed so every run checks identical instances.
"""

import functools
import math
import time

import numpy as np
import pytest

from qsum.model import MeanInstance, derive_angles, random_instances
from qsum.distribution import (
    collapse_outputs,
    error_vector,
    outcome_distribution,
)
from qsum.error_analysis import (
    L1_SLACK_CONSTANT,
    check_cot_sum_rectangle_bound,
    check_l1_cot_sum_bound,
    check_l1_log_bound,
    check_lq_integral_bound,
    local_avg_error,
    local_sup_error,
)
from qsum.numerics import sin_power_integral
from qsum.repetitions import (
    check_repetition_theorem,
    median_distribution,
    repetition_error,
)
from qsum.sampler import empirical_repetition_error, exact_standard_error
from qsum.sweep import asymptotic_table
from tests.test_repetitions import brute_force_median


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}"
                  + (f" [{detail}]" if detail else ""))

        return run

    return wrap


@criterion(1, "distribution normalization and error identity on 1000 instances")
def test_criterion_1_distribution_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(20241)
    worst_mass = 0.0
    worst_identity = 0.0
    for inst in random_instances(rng, 1000, m_range=(3, 2**12)):
        d = outcome_distribution(inst)
        worst_mass = max(worst_mass, abs(float(d.p.sum()) - 1.0))
        worst_mass = max(worst_mass, d.normalization_drift)
        # |a - output(j)| must match the product-of-sines form for all j
        product_form = error_vector(inst, d.angles)
        j = np.arange(inst.M)
        outputs = np.sin(np.pi * np.minimum(j, inst.M - j) / inst.M) ** 2
        dev = float(np.abs(product_form - np.abs(inst.a - outputs)).max())
        worst_identity = max(worst_identity, dev)
    elapsed = time.monotonic() - start
    assert worst_mass <= 1e-10
    assert worst_identity <= 1e-12
    assert elapsed < 10.0
    return f"mass drift {worst_mass:.1e}, identity {worst_identity:.1e}, {elapsed:.1f}s"


@criterion(2, "integral-sigma family is exact: single atom at the mean, zero error")
def test_criterion_2_integral_sigma_exactness():
    N = 2**20
    family = []
    for M in (4, 6, 8, 12, 16, 24, 36, 48, 60, 96, 120, 360, 1200, 2520):
        family.append((0, M))  # mean 0, any M
        if M % 2 == 0:
            family.append((N, M))  # mean 1
        if M % 4 == 0:
            family.append((N // 2, M))  # mean 1/2
        if M % 6 == 0:
            family.append((N // 4, M))  # mean 1/4
        if M % 3 == 0:
            family.append((3 * N // 4, M))  # mean 3/4
    assert len(family) > 40
    for k, M in family:
        inst = MeanInstance(k, N, M)
        assert derive_angles(inst).sigma_is_integer
        out = collapse_outputs(outcome_distribution(inst))
        assert out.atoms == [(inst.a, 1.0)]
        for q in (1.0, 2.0, 3.0):
            assert local_avg_error(inst, q) == 0.0
        assert local_sup_error(inst) == 0.0
        assert repetition_error(inst, 2.0, 2) == 0.0
    return f"{len(family)} exact instances"


def _q1_instances():
    rng = np.random.default_rng(20243)
    return random_instances(rng, 500, m_range=(3, 4096))


def _qgt1_instances():
    rng = np.random.default_rng(20244)
    return random_instances(rng, 300, m_range=(3, 4096), require_noninteger=True)


@criterion(3, "q=1 local bound holds on 500 randomized instances")
def test_criterion_3_q1_local_bound():
    reports = [check_l1_log_bound(inst) for inst in _q1_instances()]
    assert all(r.satisfied for r in reports)
    margin = min(r.slack + 1e-9 - abs(r.observed - r.main_term) for r in reports)
    return f"500 satisfied, tightest margin {margin:.2e}"


@criterion(4, "q>1 local bound holds on 300 randomized instances (conservative orientation)")
def test_criterion_4_qgt1_local_bound():
    qs = (1.2, 1.5, 2.0, 3.0, 5.0)
    reports = [
        check_lq_integral_bound(inst, qs[i % 5])
        for i, inst in enumerate(_qgt1_instances())
    ]
    assert all(r.satisfied for r in reports)
    return "300 satisfied over q in {1.2, 1.5, 2, 3, 5}"


@criterion(5, "cotangent-sum approximation and rectangle bound hold on the same sets")
def test_criterion_5_lemma_suite():
    checked = 0
    for inst in _q1_instances():
        if derive_angles(inst).sigma_is_integer:
            continue
        assert check_l1_cot_sum_bound(inst).satisfied
        assert check_cot_sum_rectangle_bound(inst).satisfied
        checked += 1
    for inst in _qgt1_instances():
        assert check_l1_cot_sum_bound(inst).satisfied
        assert check_cot_sum_rectangle_bound(inst).satisfied
        checked += 1
    return f"{checked} instance pairs"


_WORST_M_LIST = [6, 22, 86, 342, 1366]


@criterion(6, "worst q=1 normalized error sits in the envelope and nears 2/pi")
def test_criterion_6_worst_q1_constant():
    start = time.monotonic()
    rows = asymptotic_table(1.0, _WORST_M_LIST)
    elapsed = time.monotonic() - start
    for row in rows:
        half_width = L1_SLACK_CONSTANT / math.log(row.M)
        assert abs(row.normalized_constant - 2 / math.pi) <= half_width
    last = rows[-1].normalized_constant
    assert abs(last / (2 / math.pi) - 1.0) <= 0.15
    assert elapsed < 120.0
    return f"M=1366 constant {last:.4f} vs 2/pi={2/math.pi:.4f}, {elapsed:.1f}s"


@criterion(7, "worst q=2 rate constant lies between the theorem's integrals")
def test_criterion_7_worst_q2_rate():
    upper = (sin_power_integral(0.0) / math.pi) ** 0.5
    # (integral_0^pi cos^2 / pi)^(1/2), where the integral is exactly pi/2
    lower = math.sqrt(0.5)
    rows = asymptotic_table(2.0, _WORST_M_LIST)
    for row in rows:
        assert lower / 1.25 <= row.normalized_constant <= upper * 1.25
    return (
        f"e*sqrt(M) in [{min(r.normalized_constant for r in rows):.4f}, "
        f"{max(r.normalized_constant for r in rows):.4f}], "
        f"bounds [{lower/1.25:.4f}, {upper*1.25:.4f}]"
    )


@criterion(8, "supremum error degenerates to 1 (odd M) and 1 - 1/N (even M)")
def test_criterion_8_sup_error_degeneracy():
    for M in (3, 5, 7, 101, 1001):
        assert local_sup_error(MeanInstance(2**20, 2**20, M)) == 1.0
    for M, N in ((4, 16), (6, 2**10), (100, 2**20)):
        got = local_sup_error(MeanInstance(1, N, M))
        assert got == pytest.approx(1.0 - 1.0 / N, abs=1e-14)
    return "both constructions reproduced"


@criterion(9, "median distribution matches brute force and conserves mass")
def test_criterion_9_median_distribution():
    rng = np.random.default_rng(20249)
    worst = 0.0
    for inst in random_instances(rng, 15, m_range=(3, 5), n_max=2**8):
        base = collapse_outputs(outcome_distribution(inst))
        for n in (0, 1, 2):
            med = median_distribution(base, n)
            want = brute_force_median(base.alphas, base.rhos, n)
            for alpha, rho in med.atoms:
                worst = max(worst, abs(rho - want[alpha]))
    assert worst <= 1e-12
    worst_mass = 0.0
    for inst in random_instances(rng, 25, m_range=(3, 512)):
        base = collapse_outputs(outcome_distribution(inst))
        for n in range(11):
            med = median_distribution(base, n)
            worst_mass = max(worst_mass, abs(float(med.rhos.sum()) - 1.0))
    assert worst_mass <= 1e-10
    return f"brute-force dev {worst:.1e}, mass dev {worst_mass:.1e}"


@criterion(10, "median boosting flattens e*M while the unboosted error grows at rate")
def test_criterion_10_repetition_theorem():
    m_list = [6, 22, 86, 342]
    # q = 2 with n = 3: product bounded, base grows like sqrt(M)
    rows = check_repetition_theorem(2.0, m_list)
    top = [r.rep_error_times_m for r in rows[-2:]]
    assert max(top) / float(np.median(top)) <= 2.0
    base_norms = [r.base_normalized for r in rows]
    assert abs(base_norms[-1] / base_norms[-2] - 1.0) <= 0.3
    q2_products = [r.rep_error_times_m for r in rows]

    # q = 1 with n = 2: product bounded, base grows like ln M
    rows = check_repetition_theorem(1.0, m_list)
    top = [r.rep_error_times_m for r in rows[-2:]]
    assert max(top) / float(np.median(top)) <= 2.0
    base_norms = [r.base_normalized for r in rows]
    assert abs(base_norms[-1] / base_norms[-2] - 1.0) <= 0.3
    return (
        f"q2 products {', '.join(f'{p:.3f}' for p in q2_products)}; "
        f"q1 products {', '.join(f'{r.rep_error_times_m:.3f}' for r in rows)}"
    )


@criterion(11, "Monte Carlo agrees with the exact engines within 4 standard errors")
def test_criterion_11_monte_carlo_crosscheck():
    start = time.monotonic()
    rng = np.random.default_rng(202411)
    qs = (1.0, 2.0, 3.0)
    ns = (0, 1, 2, 3)
    runs = 10**5
    worst_z = 0.0
    for i, inst in enumerate(random_instances(rng, 20, m_range=(3, 64), n_max=2**10)):
        q = qs[i % 3]
        n = ns[i % 4]
        seed = int(rng.integers(0, 2**62))
        run = empirical_repetition_error(inst, q, n, runs, seed)
        exact = repetition_error(inst, q, n)
        se = max(run.standard_error, exact_standard_error(inst, q, n, runs))
        dev = abs(run.empirical_error_q**q - exact**q)
        assert dev <= 4.0 * se + 1e-12
        if se > 0:
            worst_z = max(worst_z, dev / se)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    return f"20 configs, worst |z| = {worst_z:.2f}, {elapsed:.1f}s"
