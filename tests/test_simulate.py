import csv
import math

import numpy as np
import pytest

from qite import DgpSpec, MonteCarloConfig, coverage_audit, generate, simulate, stratified, tails
from qite.model import NEG_INF
from qite.simulate import gamma_study, method_comparison, rows_to_csv

MC = MonteCarloConfig(10_000, 61)


class TestGenerate:
    def test_moments_within_three_se(self):
        spec = DgpSpec(n=4000, rho2=0.5, seed=1)
        data, tau = generate(spec)
        n = spec.n
        y0 = data.y[data.z == 0]
        y1 = data.y[data.z == 1]
        # Var(Y(0)) = Var(Y(1)) = 0.5; sample variance se ~ sqrt(2/n) * var
        se_var = math.sqrt(2.0 / y0.size) * 0.5
        assert abs(y0.var(ddof=1) - 0.5) < 3 * se_var
        assert abs(y1.var(ddof=1) - 0.5) < 3 * se_var
        # E tau = 2, Var tau = 1
        assert abs(tau.mean() - 2.0) < 3 / math.sqrt(n)

    def test_treat_count_exact(self):
        spec = DgpSpec(n=100, rho2=0.3, seed=2)
        data, _ = generate(spec)
        assert data.n_t == 50

    def test_deterministic_per_replicate(self):
        spec = DgpSpec(n=50, rho2=0.2, seed=3)
        a, ta = generate(spec, 7)
        b, tb = generate(spec, 7)
        c, _ = generate(spec, 8)
        assert np.array_equal(a.y, b.y) and np.array_equal(ta, tb)
        assert not np.array_equal(a.y, c.y)

    def test_rho2_validation(self):
        with pytest.raises(ValueError):
            DgpSpec(n=10, rho2=1.5)


    @pytest.mark.parametrize("n, fraction", [
        (1, 0.5), (0, 0.5), (4, 0.1), (4, 0.9), (3, 0.0), (4, math.nan), (4, math.inf),
    ])
    def test_design_needs_both_groups(self, n, fraction):
        with pytest.raises(ValueError):
            DgpSpec(n=n, treat_fraction=fraction)

    def test_smallest_design(self):
        data, tau = generate(DgpSpec(n=2, replications=1))
        assert (data.n_t, data.n_c, tau.size) == (1, 1, 2)


class TestStudies:
    def test_method_comparison_rows_schema(self):
        spec = DgpSpec(n=40, rho2=0.5, replications=6, seed=5)
        rows = method_comparison(spec, quantiles=(0.5, 0.9), alpha=0.1, s=2, mc=MC)
        methods = {r["method_or_gamma"] for r in rows}
        assert methods == {"m0", "m1", "m2"}
        assert all(set(r) == {"rho2", "quantile_pct", "method_or_gamma",
                              "median_lower", "n_informative"} for r in rows)
        assert len(rows) == 3 * 2

    def test_m0_uninformative_at_median(self):
        spec = DgpSpec(n=40, rho2=0.5, replications=6, seed=6)
        rows = method_comparison(spec, quantiles=(0.5,), alpha=0.1, s=2, mc=MC,
                                 methods=("m0",))
        (row,) = rows
        assert row["median_lower"] == NEG_INF and row["n_informative"] == 0

    @pytest.mark.parametrize("fraction", [0.5, 0.4])
    def test_one_family_call_per_cell(self, fraction, monkeypatch):
        # every replicate of a cell goes through one call of each family
        # function, by the names the simulation imports; a balanced design's
        # orientations share one bisection, an unbalanced design's take two
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((simulate, "intervals_from_treated_only"),
                             (simulate, "combine_treated_control"),
                             (simulate, "simultaneous_cis"),
                             (stratified, "_invert_treated_family")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        spec = DgpSpec(n=20, treat_fraction=fraction, replications=3, seed=9)
        method_comparison(spec, rho2s=(0.3, 0.6), quantiles=(0.5, 0.9), s=2, mc=MC)
        cells = 2
        for name in ("intervals_from_treated_only", "combine_treated_control",
                     "simultaneous_cis"):
            assert calls.count(name) == cells
        assert calls.count("_invert_treated_family") == cells * (3 if fraction == 0.5 else 5)

    def test_gamma_study_zero_vs_positive(self):
        # the zero-budget variant cannot move below the median quantile while
        # any positive budget can; needs the studied regime (n=100, s=6)
        spec = DgpSpec(n=100, rho2=0.5, replications=4, seed=7)
        rows = gamma_study(spec, gammas=(0.0, 0.5), quantiles=(0.5,), alpha=0.1,
                           s=6, mc=MC)
        by_gamma = {r["method_or_gamma"]: r for r in rows}
        assert by_gamma["0.0"]["n_informative"] == 0
        assert by_gamma["0.5"]["n_informative"] > 0

    def test_gamma_rows_are_m2_rows_of_method_comparison(self):
        spec = DgpSpec(n=24, rho2=0.5, replications=3, seed=12)
        mc = MonteCarloConfig(2000, 4)
        rows = gamma_study(spec, gammas=(0.0, 0.5), quantiles=(0.75, 0.9), alpha=0.2,
                           s=3, mc=mc)
        assert [(r["method_or_gamma"], r["quantile_pct"], r["median_lower"],
                 r["n_informative"]) for r in rows] == [
            ("0.0", 75, NEG_INF, 0), ("0.0", 90, 1.1616020293268454, 3),
            ("0.5", 75, 0.04667528534633081, 3), ("0.5", 90, 1.0584677160174503, 3),
        ]
        for gamma in (0.0, 0.5):
            m2 = method_comparison(spec, quantiles=(0.75, 0.9), alpha=0.2, s=3,
                                   gamma=gamma, mc=mc, methods=("m2",))
            label = f"{gamma:.1f}"
            assert [r | {"method_or_gamma": label} for r in m2] == [
                r for r in rows if r["method_or_gamma"] == label]

    def test_gamma_labels_tell_every_gamma_apart(self):
        spec = DgpSpec(n=12, rho2=0.5, replications=1, seed=3)
        gammas = (0.0, 0.21, 0.24, 0.25, 0.5)
        rows = gamma_study(spec, gammas=gammas, quantiles=(0.9,), alpha=0.2, s=2,
                           mc=MonteCarloConfig(500, 2))
        labels = [r["method_or_gamma"] for r in rows]
        assert labels == ["0.0", "0.21", "0.24", "0.25", "0.5"]
        assert [float(label) for label in labels] == list(gammas)

    def test_deterministic_rows(self):
        spec = DgpSpec(n=30, rho2=0.4, replications=5, seed=8)
        a = method_comparison(spec, quantiles=(0.8,), s=2, mc=MC, methods=("m1",))
        b = method_comparison(spec, quantiles=(0.8,), s=2, mc=MC, methods=("m1",))
        assert a == b

    @pytest.mark.parametrize("quantiles", [(), (0.0,), (0.5, math.inf), (math.nan,)])
    def test_quantile_levels_validated(self, quantiles):
        spec = DgpSpec(n=10, replications=1)
        for study in (method_comparison, gamma_study):
            with pytest.raises(ValueError, match="quantile levels must be"):
                study(spec, quantiles=quantiles, mc=MC)

    def test_empty_gamma_grid_rejected(self):
        with pytest.raises(ValueError, match="gammas list is empty"):
            gamma_study(DgpSpec(n=10, replications=1), gammas=(), mc=MC)

    def test_csv_emission(self, tmp_path):
        rows = [{"rho2": 0.5, "quantile_pct": 50, "method_or_gamma": "m0",
                 "median_lower": NEG_INF, "n_informative": 0}]
        path = tmp_path / "rows.csv"
        rows_to_csv(rows, path)
        with open(path) as fh:
            got = list(csv.DictReader(fh))
        assert got[0]["median_lower"] == "-inf"
        assert got[0]["quantile_pct"] == "50"


class TestCoverage:
    def test_combined_coverage_smoke(self):
        spec = DgpSpec(n=24, rho2=0.5, replications=60, seed=10)
        res = coverage_audit("combined-all-quantiles", spec, alpha=0.1, mc=MC)
        assert res.coverage >= 0.8 - 3 * res.se
        assert res.replications == 60

    @pytest.mark.parametrize("procedure", ["multi-quantile", "finite-population",
                                           "superpopulation"])
    def test_count_correction_computed_once_per_audit(self, procedure, monkeypatch):
        spec = DgpSpec(n=20, rho2=0.5, replications=4, seed=11)
        computed, uncached = [], tails._choose_kprime_multi.__wrapped__

        def per_replicate(*args):
            computed.append(uncached(*args))
            return computed[-1]

        with monkeypatch.context() as m:
            m.setattr(tails, "_choose_kprime_multi", per_replicate)
            fresh = coverage_audit(procedure, spec, mc=MC, pop_N=40)
        # multi-quantile inverts every replicate in one call, which chooses
        # the thresholds once; the population procedures choose them per
        # replicate, and the memo serves all but the first
        calls = 1 if procedure == "multi-quantile" else spec.replications
        assert len(computed) == calls
        tails._choose_kprime_multi.cache_clear()
        memoized = coverage_audit(procedure, spec, mc=MC, pop_N=40)
        info = tails._choose_kprime_multi.cache_info()
        assert (info.misses, info.hits) == (1, calls - 1)
        assert memoized == fresh
        assert all(c == computed[0] for c in computed)

    def test_superpopulation_truths_match_scipy_ndtri(self):
        from statistics import NormalDist

        from scipy.special import ndtri

        for b in np.linspace(0.01, 0.99, 99):
            assert abs(NormalDist().inv_cdf(b) - float(ndtri(b))) <= 1e-12, b

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError, match="replications"):
            DgpSpec(n=10, replications=0)

    def test_unknown_procedure(self):
        with pytest.raises(ValueError):
            coverage_audit("nope", DgpSpec(n=10, replications=2))
