"""Exact distributions and L_q error analysis for the amplitude-estimation
Boolean mean estimator, with median-of-repetitions boosting."""

from .errors import ConsistencyError, DomainError, QsumError
from .model import AngleSet, MeanInstance, derive_angles, random_instances
from .numerics import (
    QuadratureResult,
    integrate_adaptive,
    log_gamma,
    regularized_incomplete_beta,
    sin_power_integral,
)
from .distribution import (
    OutcomeDistribution,
    OutputDistribution,
    collapse_outputs,
    event_probability,
    exact_error,
    outcome_distribution,
    output_value,
)
from .error_analysis import (
    BoundReport,
    check_cot_sum_rectangle_bound,
    check_l1_cot_sum_bound,
    check_l1_log_bound,
    check_lq_integral_bound,
    cot_sum,
    local_avg_error,
    local_sup_error,
    lq_asymptotic_main_term,
)

__version__ = "0.1.0"

__all__ = [
    "QsumError",
    "DomainError",
    "ConsistencyError",
    "MeanInstance",
    "AngleSet",
    "derive_angles",
    "random_instances",
    "QuadratureResult",
    "log_gamma",
    "regularized_incomplete_beta",
    "sin_power_integral",
    "integrate_adaptive",
    "OutcomeDistribution",
    "OutputDistribution",
    "outcome_distribution",
    "output_value",
    "exact_error",
    "collapse_outputs",
    "event_probability",
    "BoundReport",
    "local_avg_error",
    "local_sup_error",
    "cot_sum",
    "check_l1_cot_sum_bound",
    "check_cot_sum_rectangle_bound",
    "check_l1_log_bound",
    "check_lq_integral_bound",
    "lq_asymptotic_main_term",
]
