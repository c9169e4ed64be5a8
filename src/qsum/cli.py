"""Command-line front end.

Commands: dist, error, sweep, reps, mc, verify.  CSV (RFC-4180-style,
comma separated, LF line endings) is the default output; --format json
mirrors the same fields.  Floats are printed with 17 significant digits
so output round-trips.  Exit codes: 0 success, 1 verify found a violated
bound, 2 flag errors.  Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import error_analysis as ea
from .errors import DomainError, QsumError
from .model import MeanInstance, random_instances
from .numerics import _check_q
from .repetitions import check_repetition_theorem, median_distribution, repetition_error
from .sampler import empirical_repetition_error, exact_standard_error
from .distribution import _mean_base, collapse_outputs, outcome_distribution
from .sweep import DEFAULT_GRID_COUNT, DEFAULT_GRID_N, asymptotic_table, default_grid

VERIFY_SUITES = (
    "q1",
    "qgt1",
    "lemma-avg",
    "lemma-rect",
    "worst",
    "reps",
    "mc-crosscheck",
)
# Randomized per-instance suites: the error_analysis check (looked up at
# call time), whether it needs nonintegral sigma, and the default trials.
_INSTANCE_SUITES = {
    "q1": ("check_l1_log_bound", False, 500),
    "qgt1": ("check_lq_integral_bound", True, 300),
    "lemma-avg": ("check_l1_cot_sum_bound", True, 500),
    "lemma-rect": ("check_cot_sum_rectangle_bound", True, 500),
}
_QGT1_QS = (1.2, 1.5, 2.0, 3.0, 5.0)

_WORST_M_LIST = [6, 22, 86, 342, 1366]
_REPS_M_LIST = [6, 22, 86, 342]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_q(text: str) -> float:
    """A --q value: inf, or a q by the library's rule (numerics._check_q)."""
    q = float(text)
    if q == math.inf:
        return q
    try:
        return _check_q(q)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_int(text: str) -> int:
    """Integer flag value; decimal literals with integral value also pass."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(value)


def _parse_m_list(text: str) -> list[int]:
    return [_parse_int(tok) for tok in text.split(",") if tok.strip()]


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _csv(fields: tuple[str, ...], rows: list[dict]) -> list[str]:
    """Header plus one line per row; floats as _fmt, bools in lowercase."""

    def cell(v) -> str:
        if isinstance(v, bool):
            return str(v).lower()
        return _fmt(v) if isinstance(v, float) else str(v)

    return [",".join(fields)] + [",".join(cell(r[f]) for f in fields) for r in rows]


def _emit_rows(fmt: str, fields: tuple[str, ...], rows: list[dict], one: bool = False) -> None:
    """Write rows as CSV or as JSON holding only fields; one writes the
    single row as a JSON object rather than a list."""
    if fmt == "csv":
        _emit(_csv(fields, rows))
        return
    objs = [{f: r[f] for f in fields} for r in rows]
    _emit([json.dumps(objs[0] if one else objs)])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsum",
        description="Exact distributions and error analysis of the "
        "amplitude-estimation Boolean mean estimator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k", type=_parse_int, required=True, help="number of ones")
        p.add_argument("--N", type=_parse_int, required=True, help="domain size")
        p.add_argument("--M", type=_parse_int, required=True, help="number of outcomes")

    p = sub.add_parser("dist", help="outcome distribution of one instance")
    add_instance_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("error", help="local L_q error of one instance")
    add_instance_flags(p)
    p.add_argument("--q", type=_parse_q, required=True, help="norm index or 'inf'")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("sweep", help="worst error over a grid of means")
    p.add_argument("--M-list", dest="m_list", type=_parse_m_list, required=True)
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--N", type=_parse_int, default=None, help="grid denominator")
    p.add_argument("--count", type=_parse_int, default=None, help="grid subsample size")
    p.add_argument("--dense", action="store_true", help="sweep every k in [0, N]")
    p.add_argument("--reps", type=_parse_int, default=0, help="boost with 2n+1 repetitions")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("reps", help="median-of-repetitions distribution and error")
    add_instance_flags(p)
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--n", type=_parse_int, required=True, help="2n+1 repetitions")
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("mc", help="Monte Carlo cross-check of one configuration")
    add_instance_flags(p)
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--runs", type=_parse_int, required=True)
    p.add_argument("--seed", type=_parse_int, required=True, help="PRNG seed (no hidden entropy)")
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("verify", help="machine-checkable bound verification")
    p.add_argument("--theorem", choices=VERIFY_SUITES, default=None)
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument("--trials", type=_parse_int, default=None, help="randomized instances")
    p.add_argument("--seed", type=_parse_int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _cmd_dist(args) -> int:
    d = outcome_distribution(MeanInstance(args.k, args.N, args.M))
    if args.format == "json":
        _emit([d.to_json()])
    else:
        sys.stdout.write(d.to_csv())
    return 0


def _cmd_error(args) -> int:
    inst = MeanInstance(args.k, args.N, args.M)
    if math.isinf(args.q):
        err = ea.local_sup_error(inst)
    else:
        err = ea.local_avg_error(inst, args.q)
    row = {"k": args.k, "N": args.N, "M": args.M, "q": _fmt(args.q), "error": err}
    _emit_rows(args.format, ("k", "N", "M", "q", "error"), [row], one=True)
    return 0


def _cmd_sweep(args) -> int:
    grid = None
    if args.N is not None or args.count is not None or args.dense:
        N = args.N if args.N is not None else DEFAULT_GRID_N
        if args.dense:
            grid = default_grid(N, dense=True)
        else:
            grid = default_grid(N, args.count if args.count is not None else DEFAULT_GRID_COUNT)
    rows = [dict(vars(r), q=_fmt(r.q))
            for r in asymptotic_table(args.q, args.m_list, grid, n_reps=args.reps)]
    _emit_rows(args.format, ("M", "q", "n_reps", "worst_error", "argmax_k",
                             "argmax_N", "normalized_constant"), rows)
    return 0


def _cmd_reps(args) -> int:
    inst = MeanInstance(args.k, args.N, args.M)
    if math.isinf(args.q):
        raise QsumError("reps requires finite q; use error --q inf for the sup error")
    # the one-mean memo's distribution, which repetition_error reads again
    med = median_distribution(collapse_outputs(_mean_base(inst).d), args.n)
    err = repetition_error(inst, args.q, args.n)
    if args.format == "csv":
        rows = [{"alpha": a, "rho": r} for a, r in med.atoms]
        _emit(_csv(("alpha", "rho"), rows) + [f"# error,{_fmt(err)}"])
        return 0
    _emit([json.dumps({
        "k": args.k, "N": args.N, "M": args.M, "q": args.q, "n": args.n,
        "atoms": [[a, r] for a, r in med.atoms], "error": err})])
    return 0


def _cmd_mc(args) -> int:
    inst = MeanInstance(args.k, args.N, args.M)
    if math.isinf(args.q):
        raise QsumError("mc requires finite q")
    run = empirical_repetition_error(inst, args.q, args.n, args.runs, args.seed)
    row = dict(vars(args), **vars(run))
    _emit_rows(args.format, ("k", "N", "M", "q", "n", "seed", "draws",
                             "empirical_error_q", "standard_error"), [row], one=True)
    return 0


def _report_row(suite, observed, main_term, slack, M, q, k=0, N=0) -> dict:
    """One verify row; satisfied is BoundReport's rule."""
    return {
        "suite": suite, "k": k, "N": N, "M": M, "q": q,
        "observed": observed, "main_term": main_term, "slack": slack,
        "satisfied": ea._satisfied(observed, main_term, slack),
    }


def _suite_instance_checks(suite: str, trials: int, seed: int) -> list[dict]:
    name, noninteger, _ = _INSTANCE_SUITES[suite]
    check = getattr(ea, name)
    rng = np.random.default_rng(seed)
    rows = []
    for i, inst in enumerate(random_instances(rng, trials, require_noninteger=noninteger)):
        r = check(inst, _QGT1_QS[i % len(_QGT1_QS)]) if suite == "qgt1" else check(inst)
        k, N, M, q = r.context
        rows.append(_report_row(suite, r.observed, r.main_term, r.slack, M, q, k, N))
    return rows


def _suite_worst() -> list[dict]:
    rows = []
    c_slack = ea.L1_SLACK_CONSTANT
    for r in asymptotic_table(1.0, _WORST_M_LIST):
        rows.append(
            _report_row("worst", r.normalized_constant, 2.0 / math.pi,
                        c_slack / math.log(r.M), r.M, 1.0,
                        r.argmax_k, r.argmax_N)
        )
    # The q = 2 constant lies between (integral_0^pi cos^2 / pi)^(1/2) and
    # (integral_0^pi sin^0 / pi)^(1/2); the integrals are pi/2 and pi.
    lo_b, hi_b = math.sqrt(0.5) / 1.25, 1.25
    for r in asymptotic_table(2.0, _WORST_M_LIST):
        rows.append(
            _report_row("worst", r.normalized_constant,
                        0.5 * (lo_b + hi_b), 0.5 * (hi_b - lo_b),
                        r.M, 2.0, r.argmax_k, r.argmax_N)
        )
    return rows


def _suite_reps() -> list[dict]:
    rows = []
    for q in (2.0, 1.0):
        table = check_repetition_theorem(q, _REPS_M_LIST)
        prods = [row.rep_error_times_m for row in table]
        top = prods[-2:]
        ratio = max(top) / float(np.median(top))
        rows.append(_report_row("reps", ratio, 1.0, 1.0, table[-1].M, q))
        norms = [row.base_normalized for row in table]
        growth = norms[-1] / norms[-2]
        rows.append(_report_row("reps", growth, 1.0, 0.3, table[-1].M, q))
    return rows


def _suite_mc(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows: list[dict] = []
    qs = (1.0, 2.0, 3.0)
    ns = (0, 1, 2, 3)
    insts = random_instances(rng, 20, m_range=(3, 64), n_max=2**10)
    runs = 10**5
    for i, inst in enumerate(insts):
        q = qs[i % len(qs)]
        n = ns[i % len(ns)]
        run = empirical_repetition_error(
            inst, q, n, runs, int(rng.integers(0, 2**62))
        )
        exact = repetition_error(inst, q, n)
        se = max(run.standard_error, exact_standard_error(inst, q, n, runs))
        rows.append(
            _report_row("mc-crosscheck", run.empirical_error_q**q, exact**q,
                        4.0 * se, inst.M, q, inst.k, inst.N)
        )
    return rows


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.all:
        suites = list(VERIFY_SUITES)
    elif args.theorem is not None:
        suites = [args.theorem]
    else:
        parser.error("verify needs --theorem or --all")
    randomized = set(_INSTANCE_SUITES) | {"mc-crosscheck"}
    if args.seed is None and randomized.intersection(suites):
        parser.error("--seed is required for randomized verification suites")

    rows: list[dict] = []
    for suite in suites:
        if suite in _INSTANCE_SUITES:
            trials = args.trials if args.trials is not None else _INSTANCE_SUITES[suite][2]
            rows.extend(_suite_instance_checks(suite, trials, args.seed))
        elif suite == "worst":
            rows.extend(_suite_worst())
        elif suite == "reps":
            rows.extend(_suite_reps())
        elif suite == "mc-crosscheck":
            rows.extend(_suite_mc(args.seed))

    _emit_rows(args.format, ("k", "N", "M", "q", "observed", "main_term",
                             "slack", "satisfied"), rows)
    ok = all(r["satisfied"] for r in rows)
    if not ok:
        for r in rows:
            if not r["satisfied"]:
                print(
                    f"violated: suite={r['suite']} k={r['k']} N={r['N']} "
                    f"M={r['M']} q={r['q']}",
                    file=sys.stderr,
                )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dist":
            return _cmd_dist(args)
        if args.command == "error":
            return _cmd_error(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "reps":
            return _cmd_reps(args)
        if args.command == "mc":
            return _cmd_mc(args)
        if args.command == "verify":
            return _cmd_verify(args, parser)
    except QsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
