"""Span tracing of qsum's public functions, from outside the package.

Tracer.install() replaces each traced function at every module attribute
that binds it (``qsum.sweep.local_avg_error``,
``qsum.error_analysis.outcome_distribution``, ``qsum.local_avg_error`` ...),
so calls inside the package, and the lazy imports inside its functions,
reach the wrappers.  Each call becomes one span: name, start, end and the
index of its parent span.  Spans stay in memory, in flat arrays, until the
run ends.  Counters are updated from each call's arguments and result.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# layer -> public functions traced in it.  cli is left out: it only parses
# flags and formats rows, and its import counts in setup_s.
LAYERS = {
    "model": ("derive_angles",),
    "distribution": ("outcome_distribution", "error_vector", "collapse_outputs"),
    "error_analysis": (
        "local_avg_error",
        "local_sup_error",
        "cot_sum",
        "check_l1_cot_sum_bound",
        "check_cot_sum_rectangle_bound",
        "check_l1_log_bound",
        "check_lq_integral_bound",
    ),
    "numerics": ("integrate_adaptive", "median_cdf_table", "sin_power_integral"),
    "sweep": ("worst_avg_error",),
    "repetitions": ("check_repetition_theorem", "repetition_error", "median_distribution"),
    "sampler": ("empirical_repetition_error", "sample_outcomes", "exact_standard_error"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# name -> (unit, better, exact).  Exact counters must repeat bit for bit
# between runs with one seed.
COUNTERS = {
    "model.snapped": ("count", "lower", True),
    "distribution.points": ("count", "lower", True),
    "distribution.max_drift": ("abs", "lower", False),
    "error_analysis.violations": ("count", "lower", True),
    "error_analysis.min_margin": ("abs", "higher", False),
    "numerics.quad_evals": ("count", "lower", True),
    "numerics.max_error_estimate": ("abs", "lower", False),
    "numerics.unconverged": ("count", "lower", True),
    "numerics.cdf_points": ("count", "lower", True),
    "sweep.instances": ("count", "lower", True),
    "repetitions.atoms": ("count", "lower", True),
    "sampler.draws": ("count", "lower", True),
    "sampler.bytes_computed": ("B", "lower", True),
}
_LOCAL_ERROR_SPANS = (
    "error_analysis.local_avg_error",
    "error_analysis.local_sup_error",
    "repetitions.repetition_error",
)
_GUARD = 1e-9  # BoundReport's additive guard


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in SPAN_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    specs += [(name, unit, better) for name, (unit, better, _) in COUNTERS.items()]
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def exact_counts(summary: dict[str, float]) -> dict[str, float]:
    """The entries of a Tracer.summary() that must repeat exactly across runs."""
    return {
        k: v
        for k, v in summary.items()
        if k.endswith(".calls") or (k in COUNTERS and COUNTERS[k][2])
    }


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and counters for the traced functions while installed."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {name: 0 for name in COUNTERS}
        self.counters["error_analysis.min_margin"] = math.inf

    # -- installation -------------------------------------------------

    def install(self) -> None:
        originals = {}
        for i, name in enumerate(SPAN_NAMES):
            layer, fn = name.split(".")
            mod = importlib.import_module(f"qsum.{layer}")
            originals[id(getattr(mod, fn))] = self._wrap(i, name, getattr(mod, fn))
        importlib.import_module("qsum.cli")  # binds many of them too
        for modname, mod in list(sys.modules.items()):
            if modname != "qsum" and not modname.startswith("qsum."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, nid: int, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "__"), None)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self._stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- counters -----------------------------------------------------

    def _max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters[key], value)

    def _observe_model__derive_angles(self, args, kwargs, result) -> None:
        self.counters["model.snapped"] += bool(result.sigma_is_integer)

    def _observe_distribution__outcome_distribution(self, args, kwargs, result) -> None:
        self.counters["distribution.points"] += result.M
        self._max("distribution.max_drift", result.normalization_drift)

    def _observe_distribution__error_vector(self, args, kwargs, result) -> None:
        self.counters["distribution.points"] += len(result)

    def _observe_distribution__collapse_outputs(self, args, kwargs, result) -> None:
        self.counters["distribution.points"] += _arg(args, kwargs, 0, "d").M

    def _observe_report(self, args, kwargs, r) -> None:
        self.counters["error_analysis.violations"] += not r.satisfied
        margin = r.slack + _GUARD - abs(r.observed - r.main_term)
        self.counters["error_analysis.min_margin"] = min(
            self.counters["error_analysis.min_margin"], margin
        )

    _observe_error_analysis__check_l1_cot_sum_bound = _observe_report
    _observe_error_analysis__check_cot_sum_rectangle_bound = _observe_report
    _observe_error_analysis__check_l1_log_bound = _observe_report
    _observe_error_analysis__check_lq_integral_bound = _observe_report

    def _observe_numerics__integrate_adaptive(self, args, kwargs, res) -> None:
        self.counters["numerics.quad_evals"] += res.evaluations
        self._max("numerics.max_error_estimate", res.error_estimate)
        self.counters["numerics.unconverged"] += not res.converged

    def _observe_numerics__median_cdf_table(self, args, kwargs, result) -> None:
        self.counters["numerics.cdf_points"] += int(np.size(result))

    def _observe_repetitions__median_distribution(self, args, kwargs, result) -> None:
        self.counters["repetitions.atoms"] += len(result.alphas)

    def _observe_sampler__sample_outcomes(self, args, kwargs, result) -> None:
        # SplitMix64 words, uniforms and indices: three 8-byte arrays per draw.
        self.counters["sampler.draws"] += len(result)
        self.counters["sampler.bytes_computed"] += 24 * len(result)

    def _observe_sampler__empirical_repetition_error(self, args, kwargs, result) -> None:
        # the gathered outputs, one float64 per draw
        n = _arg(args, kwargs, 2, "n")
        self.counters["sampler.bytes_computed"] += 8 * result.draws * (2 * n + 1)

    # -- results ------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """calls and self seconds per span name, and every counter."""
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time[: len(dur)]
        k = len(SPAN_NAMES)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=self_time, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        counters = dict(self.counters)
        if math.isinf(counters["error_analysis.min_margin"]):
            counters["error_analysis.min_margin"] = 0.0  # no check_* call ran
        sweep_id = SPAN_NAMES.index("sweep.worst_avg_error")
        local_ids = [SPAN_NAMES.index(n) for n in _LOCAL_ERROR_SPANS]
        under_sweep = has_parent & (nid[np.where(has_parent, parent, 0)] == sweep_id)
        counters["sweep.instances"] = int(np.sum(under_sweep & np.isin(nid, local_ids)))
        out.update(counters)
        return out

    def write(self, path: Path) -> None:
        """Write the recorded spans to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name_id=np.asarray(self.name_id, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
