"""Smoke test of the benchmark itself: python3 bench/smoke.py

Runs each workload at a tiny size, untraced and traced, and asserts that
every metric named in BENCHMARK.json is reported with its unit and that the
outputs pass their checks.  Then it makes the program return a wrong
result in each workload and asserts that the failure is counted, so the
output checks are shown to be live.  Exits 0 and prints "smoke: ok" on
success.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys

import run

run.import_qsum()

import workloads  # noqa: E402  (needs qsum on sys.path)
from qsum import error_analysis, repetitions, sweep  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload: str, trace: bool) -> dict:
    return run.measure(workload, run.DEFAULT_SEED, 0, trace, workloads.TINY, probes=1)


def assert_reports(out: dict, section: str) -> None:
    metrics = out["result"]["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(metrics) == set(want), sorted(set(want) ^ set(metrics))
    lines = run.render(out)
    assert json.loads(lines[-1]) == out["result"]
    for name, unit in want.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        assert isinstance(metrics[name]["value"], (int, float)), name
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name


@contextlib.contextmanager
def patched(module, name: str, make_wrong):
    original = getattr(module, name)
    setattr(module, name, make_wrong(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def wrong_sweep(f):
    def g(*args, **kwargs):
        r = f(*args, **kwargs)
        return dataclasses.replace(r, worst_error=r.worst_error * (1.0 + 1e-9))
    return g


def wrong_bound(f):
    def g(inst):
        r = f(inst)
        return dataclasses.replace(r, observed=r.main_term + 2.0 * r.slack + 1.0, satisfied=False)
    return g


def wrong_repetition(f):
    return lambda *args, **kwargs: f(*args, **kwargs) * 1.01


FAULTS = {
    "worst-sweep": (sweep, "worst_avg_error", wrong_sweep),
    "bound-checks": (error_analysis, "check_l1_log_bound", wrong_bound),
    "boosted-mc": (repetitions, "repetition_error", wrong_repetition),
}


def main() -> int:
    for workload in run.WORKLOAD_NAMES:
        out = tiny(workload, trace=False)
        assert out["result"]["correct"], out["meta"]["failures"]
        assert out["result"]["failed"] == 0 and out["result"]["attempted"] > 0
        assert_reports(out, "end_to_end")

        out = tiny(workload, trace=True)
        assert out["result"]["correct"], out["meta"]["failures"]
        assert_reports(out, "per_layer")

        module, name, make_wrong = FAULTS[workload]
        with patched(module, name, make_wrong):
            out = tiny(workload, trace=False)
        assert not out["result"]["correct"] and out["result"]["failed"] > 0, workload
        assert out["meta"]["failed_frac"] > 0.0
        print(f"smoke: {workload} ok ({out['result']['failed']} injected failures counted)")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
