"""The integer rule of every public integer argument: a Python or numpy
integer, not a bool, else a DomainError that names the argument; and the
q rule: a real q in [1, inf) (inf too for a sweep), not a bool, kept as a
Python float."""

import re

import numpy as np
import pytest

from qsum import event_probability, exact_error, output_value, random_instances
from qsum.distribution import outcome_distribution
from qsum.error_analysis import local_avg_error
from qsum.errors import DomainError
from qsum.model import MeanInstance
from qsum.repetitions import check_repetition_theorem, repetition_error
from qsum.sampler import (
    empirical_repetition_error,
    exact_standard_error,
    sample_outcomes,
    splitmix64,
)
from qsum.sweep import GridSpec, asymptotic_table, default_grid, worst_avg_error

_INST = MeanInstance(3, 7, 13)
_D = outcome_distribution(_INST)
_GRID = GridSpec(1024, tuple(range(0, 1025, 64)), "small")

# (argument name in the message, call taking the value under test)
_ARGUMENTS = {
    "worst_avg_error M": ("M", lambda v: worst_avg_error(v, 1.0, _GRID)),
    "worst_avg_error n_reps": ("n", lambda v: worst_avg_error(6, 1.0, _GRID, n_reps=v)),
    "asymptotic_table M": ("M", lambda v: asymptotic_table(1.0, [v, 22], _GRID)),
    "check_repetition_theorem M": ("M", lambda v: check_repetition_theorem(2.0, [v, 22], _GRID)),
    "output_value M": ("M", lambda v: output_value(1, v)),
    "output_value j": ("index", lambda v: output_value(v, 13)),
    "exact_error j": ("index", lambda v: exact_error(_INST, v)),
    "event_probability indices": ("index", lambda v: event_probability(_D, [0, v])),
    "default_grid N": ("grid N", lambda v: default_grid(v, 64)),
    "default_grid count": ("grid count", lambda v: default_grid(4096, v)),
    "GridSpec N": ("grid N", lambda v: GridSpec(v, (0, 1), "x")),
    "MeanInstance k": ("k", lambda v: MeanInstance(v, 7, 13)),
    "MeanInstance N": ("N", lambda v: MeanInstance(3, v, 13)),
    "MeanInstance M": ("M", lambda v: MeanInstance(3, 7, v)),
    "random_instances count": ("count", lambda v: random_instances(np.random.default_rng(0), v)),
    "random_instances m_range": ("m_range bound", lambda v: random_instances(np.random.default_rng(0), 2, m_range=(3, v))),
    "random_instances n_max": ("n_max", lambda v: random_instances(np.random.default_rng(0), 2, m_range=(3, 4), n_max=v)),
    "repetition_error n": ("n", lambda v: repetition_error(_INST, 1.0, v)),
    "empirical_repetition_error n": ("n", lambda v: empirical_repetition_error(_INST, 1.0, v, 100, 1)),
    "empirical_repetition_error runs": ("runs", lambda v: empirical_repetition_error(_INST, 1.0, 1, v, 1)),
    "empirical_repetition_error seed": ("seed", lambda v: empirical_repetition_error(_INST, 1.0, 1, 100, v)),
    "exact_standard_error runs": ("runs", lambda v: exact_standard_error(_INST, 1.0, 1, v)),
    "sample_outcomes count": ("count", lambda v: sample_outcomes(_D, v, 1)),
    "sample_outcomes seed": ("seed", lambda v: sample_outcomes(_D, 10, v)),
    "splitmix64 count": ("count", lambda v: splitmix64(1, v)),
    "splitmix64 seed": ("seed", lambda v: splitmix64(v, 10)),
}


@pytest.mark.parametrize("value", [6.0, np.float64(6.0), True, 2.5, 0.0, False], ids=repr)
@pytest.mark.parametrize("argument", list(_ARGUMENTS))
def test_integer_rule(argument, value):
    name, call = _ARGUMENTS[argument]
    message = f"^{re.escape(name)} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(DomainError, match=message):
        call(value)


@pytest.mark.parametrize("argument", list(_ARGUMENTS))
def test_numpy_integers_accepted(argument):
    # 6 is in range for every call above
    _ARGUMENTS[argument][1](np.int64(6))


_M_LIST_CALLS = {
    "asymptotic_table": lambda Ms: asymptotic_table(1.0, Ms, _GRID),
    "check_repetition_theorem": lambda Ms: check_repetition_theorem(2.0, Ms, _GRID),
}


@pytest.mark.parametrize("Ms", [(6,), (6, 22)], ids=str)
@pytest.mark.parametrize("name", list(_M_LIST_CALLS))
def test_m_list_arrays(name, Ms):
    # an array of M values gives the tuple's rows, with Python int M
    want = _M_LIST_CALLS[name](Ms)
    for array in (np.array(Ms), np.array(Ms, dtype=np.uint16)):
        got = _M_LIST_CALLS[name](array)
        assert got == want
        for row in got:
            assert type(row.M) is int
            assert not any(isinstance(v, np.generic) for v in vars(row).values()), row


@pytest.mark.parametrize("name", list(_M_LIST_CALLS))
def test_empty_m_list_array(name):
    with pytest.raises(DomainError, match="^M_list must be nonempty with all M >= 3$"):
        _M_LIST_CALLS[name](np.array([], dtype=np.int64))


def test_n_reps_checked_before_finite_q():
    with pytest.raises(DomainError, match=r"^n must lie in \[0, 64\], got 65$"):
        worst_avg_error(6, float("inf"), _GRID, n_reps=65)


@pytest.mark.parametrize("n_reps", [0, 1])
def test_sweep_result_holds_checked_integers(n_reps):
    want = worst_avg_error(6, 1.0, _GRID, n_reps=n_reps)
    got = worst_avg_error(np.int64(6), 1.0, _GRID, n_reps=np.int64(n_reps))
    assert got == want
    assert type(got.M) is int and type(got.n_reps) is int


# calls taking the q under test
_Q_CALLS = {
    "worst_avg_error": lambda q: worst_avg_error(6, q, _GRID),
    "check_repetition_theorem": lambda q: check_repetition_theorem(q, [6], _GRID),
    "local_avg_error": lambda q: local_avg_error(_INST, q),
    "repetition_error": lambda q: repetition_error(_INST, q, 1),
    "empirical_repetition_error": lambda q: empirical_repetition_error(_INST, q, 1, 100, 1),
    "exact_standard_error": lambda q: exact_standard_error(_INST, q, 1, 100),
}


@pytest.mark.parametrize("q", [True, False], ids=repr)
@pytest.mark.parametrize("name", list(_Q_CALLS))
def test_bool_q_rejected(name, q):
    with pytest.raises(DomainError, match=rf"^q must lie in \[1, inf\), got {q}$"):
        _Q_CALLS[name](q)


@pytest.mark.parametrize("q", ["2", None, 2 + 0j, np.complex128(2)], ids=repr)
@pytest.mark.parametrize("name", list(_Q_CALLS))
def test_non_real_q_rejected(name, q):
    message = rf"^q must lie in \[1, inf\), got {re.escape(repr(q))}$"
    with pytest.raises(DomainError, match=message):
        _Q_CALLS[name](q)


@pytest.mark.parametrize("q", [1, 2, np.float64(1.0), np.float32(1.5), np.float64(np.inf)], ids=repr)
def test_sweep_q_kept_as_python_float(q):
    got = worst_avg_error(6, q, _GRID)
    assert type(got.q) is float and got == worst_avg_error(6, float(q), _GRID)
    if not np.isinf(q):
        (row,) = check_repetition_theorem(q, [6], _GRID)
        assert type(row.q) is float and row == check_repetition_theorem(float(q), [6], _GRID)[0]
