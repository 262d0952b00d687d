"""Names the benchmark in bench/ resolves in qite.

The output checks call into the library, and the tracer replaces
module-level names through which one layer calls another.  A name lost in
a cleanup would turn benchmark checks into failed operations or drop a
layer from the trace, so every one of them must keep importing.
"""

import importlib

import pytest

# the library calls of bench/checks.py
CHECK_NAMES = (
    ("qite", "combine_scre"),
    ("qite", "load_experiment"),
    ("qite", "RankTransform"),
    ("qite", "MonteCarloConfig"),
    ("qite.worst_case", "brute_force_min"),
)

# the hooks of bench/tracing.py that resolve today; its other hooks name
# aliases the modules no longer import
TRACE_NAMES = (
    ("qite.cli", "main"),
    ("qite.cli", "load_experiment"),
    ("qite.model", "ExperimentData.stratum_members"),
    ("qite.model", "ExperimentData.stratum_sizes"),
    ("qite.cre", "null_for"),
    ("qite.stratified", "null_for"),
    ("qite.stratified", "min_stat_scre_profile"),
    ("qite.cli", "combine_treated_control"),
    ("qite.cli", "intervals_from_treated_only"),
    ("qite.cli", "simultaneous_cis"),
    ("qite.cli", "band"),
    ("qite.cli", "corrected_pvalue"),
    ("qite.simulate", "combine_treated_control"),
    ("qite.simulate", "intervals_from_treated_only"),
    ("qite.simulate", "simultaneous_cis"),
    ("qite.simulate", "ci_single"),
    ("qite.population", "combine_treated_control"),
    ("qite.population", "prediction_intervals_treated"),
    ("qite.cli", "choose_kprime_single"),
    ("qite.cre", "choose_kprime_single"),
    ("qite.cre", "choose_kprime_multi"),
    ("qite.population", "choose_kprime_multi"),
    ("qite.cli", "sensitivity_curve"),
    ("qite.stratified", "worst_case_tail"),
    ("qite.cli", "population_cis"),
    ("qite.simulate", "population_cis"),
    ("qite.cli", "method_comparison"),
    ("qite.cli", "coverage_audit"),
    ("qite.cli", "gamma_study"),
    ("qite.stratified", "invert_lower_bound"),
    ("qite.cre", "jump_grid"),
)


@pytest.mark.parametrize("module, name", CHECK_NAMES + TRACE_NAMES)
def test_name_resolves(module, name):
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
