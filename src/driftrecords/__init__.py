"""Record statistics for iid sequences carrying a linear trend.

A delta-record is an observation exceeding the running maximum by more
than a threshold delta. This package computes exact and asymptotic
record probabilities by adaptive quadrature, analytic values for the
distributions that admit them, the dependence index of consecutive
records, classifier verdicts for positivity and for finiteness of the
total record count, Monte Carlo machinery with reproducible parallel
replications, long-run variance estimators, and a trend-fitting
pipeline for yearly series.
"""
from .analysis import (
    AnalysisReport,
    BootstrapResult,
    OlsFit,
    TimeSeries,
    analyze,
    bootstrap_histogram,
    load_series,
    ols_fit,
    synthetic_temperature_series,
)
from .closed_form import (
    dagum_p_n0,
    dagum_p_n0_asymptotic,
    dagum_p_n_delta_eq_c,
    dagum_p_n_delta_eq_c_asymptotic,
    gumbel_l_inf,
    gumbel_l_inf_argmax,
    gumbel_p_delta,
    gumbel_p_n_delta,
    pareto_l_n,
    pareto_p_n_delta,
)
from .correlation import (
    DependenceIndexResult,
    dependence_index_result,
    joint_prob_consecutive,
)
from .distributions import (
    Dagum,
    Distribution,
    Exponential,
    Gumbel,
    Normal,
    ParetoUnit,
    TailInfo,
    Uniform,
    parse_spec,
)
from .errors import (
    DriftRecordsError,
    IllConditionedError,
    QuadratureError,
)
from .estimation import (
    VarianceEstimate,
    asymptotic_variance_mc,
    gaussian_interval,
    variance_estimator,
)
from .probability import (
    ALMOST_SURELY_FINITE,
    INFINITE,
    FinitenessVerdict,
    LdmConfig,
    ProbResult,
    classify_finiteness,
    classify_positivity,
    p_delta,
    p_n_delta,
)
from .records import (
    RecordFlags,
    delta_record_flags,
    running_rate,
)
from .simulate import (
    SimSummary,
    SimulationConfig,
    mc_record_rate,
    replication_rng,
    simulate_ldm,
)

__version__ = "0.1.0"

__all__ = [
    "ALMOST_SURELY_FINITE",
    "AnalysisReport",
    "BootstrapResult",
    "Dagum",
    "DependenceIndexResult",
    "Distribution",
    "DriftRecordsError",
    "Exponential",
    "FinitenessVerdict",
    "Gumbel",
    "INFINITE",
    "IllConditionedError",
    "LdmConfig",
    "Normal",
    "OlsFit",
    "ParetoUnit",
    "ProbResult",
    "QuadratureError",
    "RecordFlags",
    "SimSummary",
    "SimulationConfig",
    "TailInfo",
    "TimeSeries",
    "Uniform",
    "VarianceEstimate",
    "analyze",
    "asymptotic_variance_mc",
    "bootstrap_histogram",
    "classify_finiteness",
    "classify_positivity",
    "dagum_p_n0",
    "dagum_p_n0_asymptotic",
    "dagum_p_n_delta_eq_c",
    "dagum_p_n_delta_eq_c_asymptotic",
    "delta_record_flags",
    "dependence_index_result",
    "gaussian_interval",
    "gumbel_l_inf",
    "gumbel_l_inf_argmax",
    "gumbel_p_delta",
    "gumbel_p_n_delta",
    "joint_prob_consecutive",
    "load_series",
    "mc_record_rate",
    "ols_fit",
    "p_delta",
    "p_n_delta",
    "pareto_l_n",
    "pareto_p_n_delta",
    "parse_spec",
    "replication_rng",
    "running_rate",
    "simulate_ldm",
    "synthetic_temperature_series",
    "variance_estimator",
]
