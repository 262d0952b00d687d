"""Randomization-based inference for distributions and quantiles of
individual treatment effects in randomized, stratified, matched, and
sampling-based studies."""

__version__ = "0.1.0"

from .model import (
    DataError,
    ExperimentData,
    IntervalFamily,
    MonteCarloConfig,
    OneSidedInterval,
    QuantileHypothesis,
    RankTransform,
    load_experiment,
    switch_labels_negate,
)
from .engine import (
    ExactEnumerationError,
    NullDistribution,
    null_distribution,
    null_for,
    ranks,
    statistic,
    stratified_statistic,
    survival,
)
from .worst_case import brute_force_min, min_stat_cre, min_stat_scre
from .tails import (
    CorrectionSpec,
    choose_kprime_multi,
    choose_kprime_single,
    delta_h,
    delta_m,
)
from .cre import (
    band,
    ci_count,
    ci_single,
    corrected_pvalue,
    pvalue_all,
    pvalue_treated,
    simultaneous_cis,
)
from .stratified import (
    PValueResult,
    combine_scre,
    combine_treated_control,
    intervals_from_treated_only,
    prediction_intervals_treated,
    pvalue,
    pvalue_scre,
    pvalue_sensitivity,
    sensitivity_curve,
    sensitivity_intervals,
    worst_case_tail,
)
from .population import PopulationTarget, population_band, population_cis
from .simulate import DgpSpec, coverage_audit, gamma_study, generate, method_comparison
