import csv
import math

import numpy as np
import pytest

from qite import DgpSpec, MonteCarloConfig, coverage_audit, generate
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

    def test_gamma_study_zero_vs_positive(self):
        # the zero-budget variant cannot move below the median quantile while
        # any positive budget can; needs the studied regime (n=100, s=6)
        spec = DgpSpec(n=100, rho2=0.5, replications=4, seed=7)
        rows = gamma_study(spec, gammas=(0.0, 0.5), quantiles=(0.5,), alpha=0.1,
                           s=6, mc=MC)
        by_gamma = {r["method_or_gamma"]: r for r in rows}
        assert by_gamma["0.0"]["n_informative"] == 0
        assert by_gamma["0.5"]["n_informative"] > 0

    def test_deterministic_rows(self):
        spec = DgpSpec(n=30, rho2=0.4, replications=5, seed=8)
        a = method_comparison(spec, quantiles=(0.8,), s=2, mc=MC, methods=("m1",))
        b = method_comparison(spec, quantiles=(0.8,), s=2, mc=MC, methods=("m1",))
        assert a == b

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

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError, match="replications"):
            DgpSpec(n=10, replications=0)

    def test_unknown_procedure(self):
        with pytest.raises(ValueError):
            coverage_audit("nope", DgpSpec(n=10, replications=2))
