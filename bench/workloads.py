"""The three benchmark workloads: inputs made from a seed, the timed tasks,
and the output checks.

A workload is a list of top-level tasks.  Each task is one call into the
public qsum API, or a sweep row timed in parts, and an output check for its
result.  Tasks reach qsum functions through module attributes at call time
(``sweep.worst_avg_error``, not a name bound at import), so the tracer's
wrappers and the smoke test's fault injection apply to them.

The program receives only the generated inputs: every instance, M value and
Monte Carlo seed comes from ``numpy.random.default_rng(seed)`` here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from qsum import distribution, error_analysis, repetitions, sampler, sweep
from qsum.model import MeanInstance

# Rows of `qsum verify --theorem worst`, and the M list of its `reps` suite.
VERIFY_WORST_M = (6, 22, 86, 342, 1366)
VERIFY_REPS_M = (6, 22, 86, 342)
# 4x the trial counts `qsum verify` uses (q1 500, lemma-avg 500,
# lemma-rect 500, qgt1 300), keeping its ratios.
BOUND_TRIALS = {"q1": 2000, "lemma-avg": 2000, "lemma-rect": 2000, "qgt1": 1200}
SUITE_CHECKS = {
    "q1": "check_l1_log_bound",
    "lemma-avg": "check_l1_cot_sum_bound",
    "lemma-rect": "check_cot_sum_rectangle_bound",
    "qgt1": "check_lq_integral_bound",
}
QGT1_QS = (1.2, 1.5, 2.0, 3.0, 5.0)
M_RANGE = (3, 4096)
N_MAX = 2**20
REP_NS = (0, 1, 3, 8, 32, 64)
REL_TOL = 1e-12
ROW_PART_POINTS = 500  # about 25 to 70 ms of a sweep row


def _first(outputs: list) -> Any:
    return outputs[0]


@dataclass(frozen=True)
class Task:
    """One top-level task: its timed calls and the check of its output.

    Most tasks are one call.  A task much longer than the host's slow
    spells (a sweep row) is split into steps, each timed on its own, and
    ``join`` makes the task's output from the steps' outputs.  ``check``
    returns None when the output is right and a one-line reason otherwise;
    it runs outside the timed region.
    """

    label: str
    steps: tuple[Callable[[], Any], ...]
    check: Callable[[Any], str | None]
    join: Callable[[list], Any] = _first


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload run.  FULL is the benchmark; TINY is for the
    smoke test."""

    grid_count: int | None  # None: the sweep's default 10^4-point grid
    worst_m: tuple[int, ...]
    m_x_lo: int  # the seeded M (not 2 mod 4) is drawn from [m_x_lo, m_x_lo + 32)
    sup_m: int  # M of the supremum-error row
    bound_trials: dict
    reps_m: tuple[int, ...]
    reps_grid_count: int | None  # None: check_repetition_theorem's default grid
    rep_instances_per_m: int
    mc_runs: int
    mc_instances: int
    mc_big_runs: int


FULL = Scale(None, VERIFY_WORST_M[:4], 1024, 86, BOUND_TRIALS, VERIFY_REPS_M, None, 24, 10**5, 6, 10**6)
TINY = Scale(
    200, (6, 22), 40, 6, {k: 10 for k in BOUND_TRIALS}, (6, 22), 100, 1, 2000, 2, 10**4
)


def _rel_close(x: float, y: float, tol: float = REL_TOL) -> bool:
    return abs(x - y) <= tol * max(abs(x), abs(y), 1e-300)


def _draw_instance(rng: np.random.Generator, m_range=M_RANGE, n_max=N_MAX) -> MeanInstance:
    M = int(rng.integers(m_range[0], m_range[1] + 1))
    N = int(rng.integers(M + 1, n_max + 1))
    k = int(rng.integers(0, N + 1))
    return MeanInstance(k, N, M)


def sigma_is_integral(k: int, N: int, M: int, tol: float = 1e-9) -> bool:
    """Whether sigma = M arcsin(sqrt(k/N))/pi lies within tol of an integer,
    with the means 0, 1/2 and 1 decided exactly (the suites that need a
    nonintegral sigma skip these instances, as `qsum verify` does)."""
    if k == 0:
        return True
    if k == N:
        return M % 2 == 0
    if 2 * k == N:
        return M % 4 == 0
    sigma = M * math.asin(math.sqrt(k / N)) / math.pi
    return abs(sigma - round(sigma)) <= tol


def _local_error(inst: MeanInstance, q: float) -> float:
    if math.isinf(q):
        return error_analysis.local_sup_error(inst)
    return error_analysis.local_avg_error(inst, q)


# ---------------------------------------------------------------- worst-sweep


def worst_sweep_rows(seed: int, scale: Scale = FULL) -> list[tuple[int, float]]:
    """The verify `worst` M list up to 342, alternately at q = 1 and q = 2,
    one seeded M that is not 2 mod 4 at q = 1, and one supremum-error row.
    The seeded M stands in for M = 1366: six rows keep the job short
    enough to repeat eight times or so in a run, which the per-task
    minimum needs."""
    rng = np.random.default_rng(seed)
    m_x = int(rng.choice([m for m in range(scale.m_x_lo, scale.m_x_lo + 32) if m % 4 != 2]))
    rows = [(M, 1.0) for M in scale.worst_m[0::2]] + [(m_x, 1.0)]
    rows += [(M, 2.0) for M in scale.worst_m[1::2]] + [(scale.sup_m, math.inf)]
    return rows


def _check_sweep_row(M: int, q: float, r) -> str | None:
    at_argmax = _local_error(MeanInstance(r.argmax_k, r.argmax_N, M), q)
    if not _rel_close(r.worst_error, at_argmax):
        return f"worst_error {r.worst_error!r} != local error {at_argmax!r} at its argmax"
    for inst in sweep.sharpness_instances(M):
        e = _local_error(inst, q)
        if r.worst_error < e * (1.0 - REL_TOL):
            return f"worst_error {r.worst_error!r} below sharpness instance error {e!r}"
    if q == 2.0 and M % 4 == 2:
        c = r.worst_error * math.sqrt(M)
        if abs(c - 1.0 / math.sqrt(2.0)) > 1e-12:
            return f"q=2 normalized constant {c!r} != 1/sqrt(2) for M = 2 mod 4"
    return None


def _join_row(parts: list):
    """The row's result from its parts' results, in ascending k: the first
    largest error, as worst_avg_error breaks ties to the smallest k."""
    best = parts[0]
    for r in parts[1:]:
        if r.worst_error > best.worst_error:
            best = r
    return best


def worst_sweep(seed: int, scale: Scale = FULL) -> list[Task]:
    """One task per row: `worst_avg_error` over the grid plus the
    sharpness instances.  A row is timed in parts of ROW_PART_POINTS
    consecutive means, each swept by its own `worst_avg_error` call, so
    that each part's fastest repeat can be taken; the parts together
    evaluate the same means as one call on the whole grid."""
    grid = sweep.default_grid() if scale.grid_count is None else sweep.default_grid(count=scale.grid_count)
    tasks = []
    for M, q in worst_sweep_rows(seed, scale):
        ks = sorted(grid.ks + tuple(inst.k for inst in sweep.sharpness_instances(M, grid.N)))
        parts = [
            sweep.GridSpec(grid.N, tuple(ks[i : i + ROW_PART_POINTS]), f"{grid.label} + sharpness, part {i}")
            for i in range(0, len(ks), ROW_PART_POINTS)
        ]
        tasks.append(
            Task(
                f"worst M={M} q={q}",
                tuple(lambda M=M, q=q, g=g: sweep.worst_avg_error(M, q, g) for g in parts),
                lambda r, M=M, q=q: _check_sweep_row(M, q, r),
                _join_row,
            )
        )
    return tasks


# --------------------------------------------------------------- bound-checks

# check_cot_sum_rectangle_bound's stated constant fails at M = 3 with s near
# 1/2 (documented in its docstring); such reports are expected, not failures.
def _check_report(suite: str, inst: MeanInstance, r) -> str | None:
    if r.context[:3] != (inst.k, inst.N, inst.M):
        return f"report context {r.context!r} is not the instance"
    if not r.satisfied and not (suite == "lemma-rect" and inst.M == 3):
        return f"{suite} bound violated at {r.context!r}"
    return None


def bound_checks(seed: int, scale: Scale = FULL) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks = []
    for suite, trials in scale.bound_trials.items():
        i = 0
        while i < trials:
            inst = _draw_instance(rng)
            if suite != "q1" and sigma_is_integral(inst.k, inst.N, inst.M):
                continue
            args = (inst, QGT1_QS[i % len(QGT1_QS)]) if suite == "qgt1" else (inst,)
            label = f"{suite} k={inst.k} N={inst.N} M={inst.M}" + (f" q={args[1]}" if suite == "qgt1" else "")
            tasks.append(
                Task(
                    label,
                    (lambda f=SUITE_CHECKS[suite], args=args: getattr(error_analysis, f)(*args),),
                    lambda r, suite=suite, inst=inst: _check_report(suite, inst, r),
                )
            )
            i += 1
    return tasks


# ----------------------------------------------------------------- boosted-mc


def _check_theorem_row(q: float, M: int, rows) -> str | None:
    (row,) = rows
    if not (row.M == M and row.q == q and row.n == math.ceil(q) + 1):
        return f"row {row!r} does not match M={M}, q={q}"
    if not _rel_close(row.rep_error_times_m, row.worst_rep_error * M):
        return "rep_error_times_m != worst_rep_error * M"
    for inst in sweep.sharpness_instances(M):
        e = error_analysis.local_avg_error(inst, q)
        if row.worst_base_error < e * (1.0 - REL_TOL):
            return f"worst_base_error {row.worst_base_error!r} below sharpness error {e!r}"
    return None


def _check_repetition(inst: MeanInstance, q: float, n: int, value: float) -> str | None:
    base = distribution.collapse_outputs(distribution.outcome_distribution(inst))
    mass = float(np.sum(repetitions.median_distribution(base, n).rhos))
    if abs(mass - 1.0) > 1e-12:
        return f"median atom masses sum to {mass!r}"
    if n == 0:
        # Compared on the scale of the mean E|a - median|^q: the median atom
        # masses are CDF differences with ~eps absolute error each, so this
        # mean is accurate to about M eps <= 1e-12, while its q-th root
        # loses relative accuracy as the error gets small.
        local = error_analysis.local_avg_error(inst, q)
        if abs(value**q - local**q) > 1e-12:
            return f"n=0 repetition error {value!r} != local_avg_error {local!r}"
    return None


def _check_curve(inst: MeanInstance, q: float, values: list[float]) -> str | None:
    for n, value in zip(REP_NS, values):
        reason = _check_repetition(inst, q, n, value)
        if reason is not None:
            return f"n={n}: {reason}"
    return None


def _check_mc(q: float, out) -> str | None:
    run, exact_se, exact = out
    gap = abs(run.empirical_error_q**q - exact**q)
    se = max(run.standard_error, exact_se)
    if gap > 4.0 * se + 1e-12:
        return f"MC {run.empirical_error_q!r} is {gap / max(se, 1e-300):.1f} SE from exact {exact!r} (q={q})"
    return None


def boosted_mc(seed: int, scale: Scale = FULL) -> list[Task]:
    rng = np.random.default_rng(seed)
    grid = None if scale.reps_grid_count is None else sweep.default_grid(count=scale.reps_grid_count)
    tasks = []
    for q in (1.0, 2.0):
        for M in scale.reps_m:
            tasks.append(
                Task(
                    f"theorem M={M} q={q}",
                    (lambda q=q, M=M: repetitions.check_repetition_theorem(q, [M], grid),),
                    lambda rows, q=q, M=M: _check_theorem_row(q, M, rows),
                )
            )
    for M in scale.reps_m + (VERIFY_WORST_M[-1],):
        for _ in range(scale.rep_instances_per_m):
            N = int(rng.integers(M + 1, N_MAX + 1))
            inst = MeanInstance(int(rng.integers(0, N + 1)), N, M)
            # one task is an instance's boosted-error curve over REP_NS at
            # one q; with a task per n, the task median would fall between
            # the n = 3 and n = 8 costs and jump between them
            for q in (1.0, 2.0):
                tasks.append(
                    Task(
                        f"repetition k={inst.k} N={N} M={M} q={q} n={REP_NS}",
                        (lambda inst=inst, q=q: [repetitions.repetition_error(inst, q, n) for n in REP_NS],),
                        lambda vs, inst=inst, q=q: _check_curve(inst, q, vs),
                    )
                )
    # Cross-checks as in `qsum verify --theorem mc-crosscheck`, plus one
    # run of a million medians of 7, the sampler's memory-heavy case.
    mc = [(scale.mc_runs, (1.0, 2.0, 3.0)[i % 3], (0, 1, 2, 3)[i % 4]) for i in range(scale.mc_instances)]
    mc.append((scale.mc_big_runs, 1.0, 3))
    for runs, q, n in mc:
        inst = _draw_instance(rng, (3, 64), 2**10)
        mc_seed = int(rng.integers(0, 2**62))

        def call(inst=inst, q=q, n=n, runs=runs, mc_seed=mc_seed):
            return (
                sampler.empirical_repetition_error(inst, q, n, runs, mc_seed),
                sampler.exact_standard_error(inst, q, n, runs),
                repetitions.repetition_error(inst, q, n),
            )

        label = f"mc k={inst.k} N={inst.N} M={inst.M} q={q} n={n} runs={runs}"
        tasks.append(Task(label, (call,), lambda out, q=q: _check_mc(q, out)))
    return tasks


WORKLOADS = {
    "worst-sweep": worst_sweep,
    "bound-checks": bound_checks,
    "boosted-mc": boosted_mc,
}
