"""Tolerances are module constants: only derive_angles takes one."""

import inspect

import pytest

import qsum
from qsum import error_analysis, repetitions, sampler, sweep

_TOLERANCE_PARAMETERS = {"integer_tol", "support_tol", "quad_tol"}


def _public_callables():
    for module in (qsum, sweep, repetitions, sampler):
        for name in module.__all__:
            obj = getattr(module, name)
            is_exception = isinstance(obj, type) and issubclass(obj, Exception)
            if callable(obj) and not is_exception:
                yield f"{module.__name__}.{name}", obj
    yield "qsum.error_analysis.full_lq_integral", error_analysis.full_lq_integral


def test_public_api_is_walked():
    names = {name for name, _ in _public_callables()}
    assert "qsum.local_avg_error" in names
    assert "qsum.repetitions.repetition_error" in names
    assert "qsum.sampler.exact_standard_error" in names
    assert "qsum.sweep.worst_avg_error" in names


@pytest.mark.parametrize("name, func", list(_public_callables()))
def test_no_tolerance_parameters(name, func):
    params = set(inspect.signature(func).parameters)
    if func is qsum.derive_angles:
        assert params & _TOLERANCE_PARAMETERS == {"integer_tol"}
    else:
        assert not params & _TOLERANCE_PARAMETERS, name
