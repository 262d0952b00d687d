import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qite.cli
from qite.cli import main
from qite.engine import ExactEnumerationError
from qite.model import IntervalFamily

TOY = "z,y\n1,5.0\n1,4.0\n0,1.0\n0,2.0\n1,3.5\n0,0.5\n1,2.5\n0,3.0\n"
TOY_STRATA = (
    "z,y,stratum\n"
    "1,3.0,a\n0,1.0,a\n0,2.0,a\n"
    "1,4.0,b\n0,2.5,b\n0,1.5,b\n"
    "1,5.0,c\n0,3.0,c\n0,2.0,c\n"
)
TOY_PAIRS = "z,y,stratum\n" + "".join(
    f"1,{2.0 + i},p{i}\n0,{1.0 + i},p{i}\n" for i in range(5)
)


@pytest.fixture
def toy_csv(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text(TOY)
    return str(p)


def run_cli(args, tmp_path, name="out"):
    prefix = str(tmp_path / name)
    code = main(args + ["--output", prefix])
    return code, prefix


class TestQuantileCi:
    def test_m1_toy(self, toy_csv, tmp_path, capsys):
        code, prefix = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", "m1", "--alpha", "0.05",
             "--all", "--mc-draws", "2000", "--seed", "1"], tmp_path)
        assert code == 0
        fam = json.loads(open(prefix + ".json").read())
        assert fam["level"] == 0.9
        assert fam["simultaneous"] is True
        lowers = [e["lower"] for e in fam["entries"]]
        assert len(lowers) == 8
        assert os.path.exists(prefix + ".csv")
        assert os.path.exists(prefix + ".manifest.json")

    def test_m0_equals_m2_gamma_zero_quantiles(self, toy_csv, tmp_path):
        code0, p0 = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", "m0", "--alpha", "0.2",
             "--quantiles", "0.75,1.0", "--seed", "1", "--mc-draws", "2000"],
            tmp_path, "m0")
        assert code0 == 0
        fam0 = json.loads(open(p0 + ".json").read())
        # gamma=0 single-orientation corrected intervals match the m0 family
        from qite import RankTransform, ci_single, load_experiment
        data = load_experiment(TOY)
        for e in fam0["entries"]:
            res = ci_single(data, RankTransform.wilcoxon(), e["index"], 0.2, 0.0)
            want = "-inf" if res.interval.lower == float("-inf") else res.interval.lower
            assert e["lower"] == want

    def test_m2_with_all_is_flag_error(self, toy_csv, tmp_path):
        code, _ = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", "m2", "--all"], tmp_path)
        assert code == 3

    @pytest.mark.parametrize("alpha", ["1.5", "0"])
    def test_m2_alpha_outside_unit_interval_is_flag_error(self, toy_csv, tmp_path, capsys,
                                                          alpha):
        code, prefix = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", "m2", "--quantiles", "0.5,0.75",
             "--alpha", alpha, "--mc-draws", "2000"], tmp_path)
        assert code == 3
        assert "alpha must be in (0, 1)" in capsys.readouterr().err
        assert not os.path.exists(prefix + ".json")

    def test_m2_quantiles(self, toy_csv, tmp_path):
        code, prefix = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", "m2", "--gamma", "0.5",
             "--quantiles", "0.5,0.75,1.0", "--alpha", "0.2", "--seed", "2",
             "--mc-draws", "2000"], tmp_path)
        assert code == 0
        fam = json.loads(open(prefix + ".json").read())
        assert [e["index"] for e in fam["entries"]] == [4, 6, 8]

    @pytest.mark.parametrize("method", ["m0", "m1", "m2"])
    @pytest.mark.parametrize("levels", ["0.75,0.5", "0.5,0.5", "1,0.5,0.75,0.5"])
    def test_unsorted_and_repeated_quantiles(self, toy_csv, tmp_path, method, levels):
        # the family of the sorted distinct levels
        base = ["quantile-ci", "--data", toy_csv, "--method", method, "--alpha", "0.2",
                "--seed", "2", "--mc-draws", "2000"]
        code, prefix = run_cli(base + ["--quantiles", levels], tmp_path)
        assert code == 0
        distinct = ",".join(sorted(set(levels.split(",")), key=float))
        _, want = run_cli(base + ["--quantiles", distinct], tmp_path, "distinct")
        assert open(prefix + ".json").read() == open(want + ".json").read()

    def test_level_read_as_decimal(self, tmp_path):
        # 0.55 * 100 is 55.00000000000001 in floats: the index is still 55
        p = tmp_path / "n100.csv"
        p.write_text("z,y\n" + "".join(f"{i % 2},{i / 10}\n" for i in range(100)))
        code, prefix = run_cli(
            ["quantile-ci", "--data", str(p), "--method", "m1", "--quantiles", "0.55",
             "--seed", "2", "--mc-draws", "2000"], tmp_path)
        assert code == 0
        assert [e["index"] for e in json.loads(open(prefix + ".json").read())["entries"]] == [55]

    def test_m2_band_steps_over_every_index(self, toy_csv, tmp_path):
        code, prefix = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", "m2", "--quantiles", "0.625,1",
             "--alpha", "0.4", "--band", "--seed", "2", "--mc-draws", "2000"], tmp_path)
        assert code == 0
        got = json.loads(open(prefix + ".json").read())
        from qite import MonteCarloConfig, RankTransform, band, load_experiment, simultaneous_cis
        data = load_experiment(TOY)
        fam = simultaneous_cis(data, RankTransform.wilcoxon(), [5, 8], 0.4, 0.5,
                               MonteCarloConfig(2000, 2), combine_sides=True)
        assert got == json.loads(json.dumps(band(fam, data.n).to_dict()))
        assert [e["index"] for e in got["entries"]] == list(range(1, 9))
        # k = 1..7 lie below the first target or take its unbounded interval
        lowers = [(e["lower"], e["closed"]) for e in got["entries"]]
        assert lowers[:7] == [("-inf", False)] * 7
        assert lowers[7][0] == fam.interval(8).lower == 1.0

    def test_stephenson_statistic_reaches_library(self, toy_csv, tmp_path):
        from qite import (MonteCarloConfig, RankTransform, combine_treated_control,
                          load_experiment, pvalue_all)
        data, s3, mc = load_experiment(TOY), RankTransform.stephenson(3), MonteCarloConfig(2000, 5)
        code, prefix = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", "m1", "--alpha", "0.2", "--all",
             "--statistic", "stephenson", "--s", "3", "--seed", "5", "--mc-draws", "2000"],
            tmp_path, "ci")
        assert code == 0
        got = json.loads(open(prefix + ".json").read())
        want = combine_treated_control(data, s3, 0.2, mc=mc)
        assert got == json.loads(json.dumps(want.to_dict()))
        assert got != json.loads(json.dumps(
            combine_treated_control(data, RankTransform.wilcoxon(), 0.2, mc=mc).to_dict()))
        code, prefix = run_cli(
            ["test", "--data", toy_csv, "--k", "6", "--c", "0.5", "--statistic", "stephenson",
             "--s", "3", "--seed", "5", "--mc-draws", "2000"], tmp_path, "test")
        assert code == 0
        out = json.loads(open(prefix + ".json").read())
        res = pvalue_all(data, s3, 6, 0.5, mc=mc)
        assert (out["p_value"], out["statistic_min"]) == (res.value, res.statistic_min)

    @pytest.mark.parametrize("alpha", ["0.5", "0.7"])
    def test_m1_alpha_from_half_is_flag_error(self, toy_csv, tmp_path, capsys, alpha):
        code, prefix = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", "m1", "--all", "--alpha", alpha,
             "--mc-draws", "2000"], tmp_path)
        assert code == 3
        assert "alpha must be in (0, 0.5)" in capsys.readouterr().err
        assert not os.path.exists(prefix + ".json")

    @pytest.mark.parametrize("method", ["m0", "m1", "m2"])
    def test_empty_quantile_list_is_flag_error(self, toy_csv, tmp_path, capsys, method):
        code, prefix = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", method, "--quantiles", "",
             "--mc-draws", "2000"], tmp_path)
        assert code == 3
        assert "--quantiles needs at least one level" in capsys.readouterr().err
        assert not os.path.exists(prefix + ".json")

    def test_outcome_beyond_bound_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        p.write_text("z,y\n1,1e308\n0,-1e308\n1,0\n0,1\n")
        code, prefix = run_cli(["quantile-ci", "--data", str(p), "--method", "m1",
                                "--all", "--mc-draws", "2000"], tmp_path)
        assert code == 2
        assert "outcomes must lie within" in capsys.readouterr().err
        assert not os.path.exists(prefix + ".json")

    def test_schema_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("z,y\n1,1.0\n1,2.0\n")   # no controls
        code, _ = run_cli(["quantile-ci", "--data", str(bad), "--method", "m1",
                           "--all"], tmp_path)
        assert code == 2

    def test_missing_file_exit_2(self, tmp_path):
        code, _ = run_cli(["quantile-ci", "--data", str(tmp_path / "nope.csv"),
                           "--method", "m1", "--all"], tmp_path)
        assert code == 2


class TestStratifiedQuantileCi:
    @pytest.fixture
    def strata_csv(self, tmp_path):
        p = tmp_path / "strat.csv"
        p.write_text(TOY_STRATA)
        return str(p)

    def test_m1_all_equals_combine_scre(self, strata_csv, tmp_path):
        code, prefix = run_cli(
            ["quantile-ci", "--data", strata_csv, "--method", "m1", "--alpha", "0.2",
             "--all", "--seed", "3", "--mc-draws", "2000"], tmp_path)
        assert code == 0
        got = json.loads(open(prefix + ".json").read())
        from qite import MonteCarloConfig, RankTransform, combine_scre, load_experiment
        want = combine_scre(load_experiment(TOY_STRATA), RankTransform.wilcoxon(), 0.2,
                            mc=MonteCarloConfig(2000, 3))
        assert got == json.loads(json.dumps(want.to_dict()))

    def test_m2_is_flag_error(self, strata_csv, tmp_path, capsys):
        code, _ = run_cli(
            ["quantile-ci", "--data", strata_csv, "--method", "m2",
             "--quantiles", "0.5,0.9", "--mc-draws", "2000"], tmp_path)
        assert code == 3
        assert "complete randomization" in capsys.readouterr().err

    def test_corrected_test_is_flag_error(self, strata_csv, tmp_path, capsys):
        code, _ = run_cli(
            ["test", "--data", strata_csv, "--k", "n", "--c", "0", "--method",
             "corrected", "--mc-draws", "2000"], tmp_path)
        assert code == 3
        assert "complete randomization" in capsys.readouterr().err


class TestTestCmd:
    def test_k_equals_n_small_p_for_positive_shift(self, toy_csv, tmp_path):
        code, prefix = run_cli(
            ["test", "--data", toy_csv, "--k", "n", "--c", "0", "--seed", "3",
             "--mc-draws", "2000"], tmp_path)
        assert code == 0
        out = json.loads(open(prefix + ".json").read())
        assert out["k"] == 8 and out["scope"] == "all"
        # exact enumeration: treated ranks (8,7,6,4), and only two of the
        # C(8,4)=70 assignments reach a rank sum of 25
        assert out["p_value"] == pytest.approx(2 / 70)

    def test_k_n_is_the_treated_count_in_treated_scope(self, toy_csv, tmp_path):
        # --k n names the size of the scope: n_t = 4 of the 8 units here
        outs = []
        for k in ("n", "4"):
            code, prefix = run_cli(
                ["test", "--data", toy_csv, "--k", k, "--c", "0", "--scope", "treated",
                 "--mc-draws", "2000"], tmp_path, name=f"k{k}")
            assert code == 0
            outs.append(json.loads(open(prefix + ".json").read()))
        assert outs[0] == outs[1]
        assert outs[0]["k"] == 4 and outs[0]["scope"] == "treated"

    def test_corrected_method(self, toy_csv, tmp_path):
        code, prefix = run_cli(
            ["test", "--data", toy_csv, "--k", "6", "--c", "0.0", "--method",
             "corrected", "--gamma", "0.5", "--seed", "3", "--mc-draws", "2000"],
            tmp_path)
        assert code == 0
        out = json.loads(open(prefix + ".json").read())
        assert out["method"] == "corrected"
        assert out["k_prime"] is not None

    def test_stratified_data_dispatches(self, tmp_path):
        p = tmp_path / "strat.csv"
        p.write_text(TOY_STRATA)
        code, prefix = run_cli(
            ["test", "--data", str(p), "--k", "n", "--c", "0", "--seed", "4",
             "--mc-draws", "2000"], tmp_path)
        assert code == 0
        out = json.loads(open(prefix + ".json").read())
        assert out["method"] == "stratified"

    def test_corrected_with_treated_scope_is_flag_error(self, toy_csv, tmp_path, capsys):
        # the corrected p-value is for a hypothesis about all units
        code, prefix = run_cli(
            ["test", "--data", toy_csv, "--k", "6", "--c", "0", "--method", "corrected",
             "--scope", "treated", "--mc-draws", "2000"], tmp_path)
        assert code == 3
        assert "--scope treated" in capsys.readouterr().err
        assert not os.path.exists(prefix + ".json")

    # past twice the outcome bound, y - c would overflow
    @pytest.mark.parametrize("c", ["nan", "inf", "-inf", "1.7e308", "-1e308"])
    def test_non_finite_threshold_is_flag_error(self, toy_csv, tmp_path, capsys, c):
        code, prefix = run_cli(
            ["test", "--data", toy_csv, "--k", "n", f"--c={c}", "--mc-draws", "2000"],
            tmp_path)
        assert code == 3
        assert "finite" in capsys.readouterr().err
        assert not os.path.exists(prefix + ".json")


class TestSensitivityCmd:
    def test_pairs_grid(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text(TOY_PAIRS)
        code, prefix = run_cli(
            ["sensitivity", "--data", str(p), "--gamma-grid", "1.0,2.0",
             "--mode", "pairs", "--alpha", "0.3", "--seed", "5",
             "--mc-draws", "2000"], tmp_path)
        assert code == 0
        out = json.loads(open(prefix + ".json").read())
        assert out["gammas"] == [1.0, 2.0]
        assert "1.0" in out["families"]
        assert len(out["zero_exclusion_thresholds"]) == 5

    def test_repeated_gammas_kept_once(self, tmp_path):
        # the grid is its sorted distinct Gammas: one family each
        p = tmp_path / "pairs.csv"
        p.write_text(TOY_PAIRS)
        outs = []
        for grid in ("2,1,2", "1,2"):
            code, prefix = run_cli(
                ["sensitivity", "--data", str(p), "--gamma-grid", grid,
                 "--mode", "pairs", "--alpha", "0.3", "--seed", "5",
                 "--mc-draws", "2000"], tmp_path, name=grid.replace(",", "-"))
            assert code == 0
            outs.append(open(prefix + ".json").read())
        assert outs[0] == outs[1]
        out = json.loads(outs[0])
        assert out["gammas"] == [1.0, 2.0]
        assert sorted(out["families"]) == ["1.0", "2.0"]

    def test_gamma_one_equals_scre_intervals(self, tmp_path):
        p = tmp_path / "strat.csv"
        p.write_text(TOY_STRATA)
        code, prefix = run_cli(
            ["sensitivity", "--data", str(p), "--gamma-grid", "1.0",
             "--mode", "gaussian", "--alpha", "0.3", "--seed", "6",
             "--mc-draws", "2000"], tmp_path)
        assert code == 0

    @pytest.mark.parametrize("alpha", ["0", "1.5"])
    def test_alpha_outside_unit_interval_is_flag_error(self, tmp_path, capsys, alpha):
        p = tmp_path / "pairs.csv"
        p.write_text(TOY_PAIRS)
        code, prefix = run_cli(
            ["sensitivity", "--data", str(p), "--gamma-grid", "1.0", "--alpha", alpha,
             "--mc-draws", "2000"], tmp_path)
        assert code == 3
        assert "alpha must be in (0, 1)" in capsys.readouterr().err
        assert not os.path.exists(prefix + ".json")

    @pytest.mark.parametrize("gamma", ["nan", "inf", "1.0,inf"])
    @pytest.mark.parametrize("mode", ["pairs", "gaussian"])
    def test_non_finite_gamma_is_flag_error(self, tmp_path, capsys, gamma, mode):
        p = tmp_path / "pairs.csv"
        p.write_text(TOY_PAIRS)
        code, prefix = run_cli(
            ["sensitivity", "--data", str(p), "--gamma-grid", gamma, "--mode", mode,
             "--mc-draws", "2000"], tmp_path)
        assert code == 3
        assert "Gamma must be finite and >= 1" in capsys.readouterr().err
        assert not os.path.exists(prefix + ".json")

    @pytest.mark.parametrize("mode, text, message", [
        # a one-unit set cannot reach the matched-set check: the loader
        # rejects a stratum without a control first
        ("pairs", "z,y,stratum\n1,2.0,a\n0,1.0,a\n1,3.0,b\n",
         "lacks a treated or a control unit"),
        ("gaussian", "z,y,stratum\n1,2.0,a\n1,3.0,a\n0,1.0,a\n1,4.0,b\n0,2.0,b\n",
         "exactly one treated unit per set"),
        ("pairs", "z,y,stratum\n1,2.0,a\n0,3.0,a\n0,1.0,a\n1,4.0,b\n0,2.0,b\n0,5.0,b\n",
         "every matched set to have size 2"),
    ], ids=["one-unit-set", "two-treated-in-a-set", "triples-in-pairs-mode"])
    def test_data_shape_is_input_error(self, tmp_path, capsys, mode, text, message):
        p = tmp_path / "sets.csv"
        p.write_text(text)
        code, prefix = run_cli(
            ["sensitivity", "--data", str(p), "--gamma-grid", "1.0", "--mode", mode,
             "--mc-draws", "2000"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err
        assert not os.path.exists(prefix + ".json")


class TestPopulationCmd:
    def test_finite(self, toy_csv, tmp_path):
        code, prefix = run_cli(
            ["population-ci", "--data", toy_csv, "--population-size", "40",
             "--betas", "0.5,0.9", "--alpha", "0.3", "--seed", "7",
             "--mc-draws", "2000"], tmp_path)
        assert code == 0
        fam = json.loads(open(prefix + ".json").read())
        assert [e["index"] for e in fam["entries"]] == [0.5, 0.9]

    def test_superpopulation(self, toy_csv, tmp_path):
        code, prefix = run_cli(
            ["population-ci", "--data", toy_csv, "--superpopulation",
             "--betas", "0.5,0.9", "--alpha", "0.3", "--seed", "8",
             "--mc-draws", "2000"], tmp_path)
        assert code == 0

    def test_population_smaller_than_sample_is_flag_error(self, toy_csv, tmp_path):
        code, _ = run_cli(
            ["population-ci", "--data", toy_csv, "--population-size", "4",
             "--betas", "0.5"], tmp_path)
        assert code == 3

    @pytest.mark.parametrize("units", ["treated", "control"])
    def test_group_units_on_strata_is_flag_error(self, tmp_path, capsys, units):
        p = tmp_path / "strat.csv"
        p.write_text(TOY_STRATA)
        code, prefix = run_cli(
            ["population-ci", "--data", str(p), "--population-size", "40",
             "--betas", "0.5", "--units", units, "--mc-draws", "2000"], tmp_path)
        assert code == 3
        assert "3 strata" in capsys.readouterr().err
        assert not os.path.exists(prefix + ".json")


class TestSimulateCmd:
    def test_method_comparison_csv(self, tmp_path):
        code, prefix = run_cli(
            ["simulate", "--study", "method-comparison", "--replications", "3",
             "--n", "20", "--rho2", "0.5", "--statistic", "stephenson", "--s", "2",
             "--seed", "9", "--mc-draws", "2000"], tmp_path)
        assert code == 0
        rows = open(prefix + ".csv").read().splitlines()
        assert rows[0] == "rho2,quantile_pct,method_or_gamma,median_lower,n_informative"
        assert len(rows) > 1

    def test_gamma_study_csv(self, tmp_path):
        code, prefix = run_cli(
            ["simulate", "--study", "gamma", "--n", "24", "--replications", "3",
             "--gamma-grid", "0,0.5", "--quantiles", "0.75,0.9", "--alpha", "0.2",
             "--s", "3", "--seed", "12", "--mc-draws", "2000"], tmp_path)
        assert code == 0
        assert json.loads(open(prefix + ".json").read()) == {"rows": 4, "study": "gamma"}
        assert open(prefix + ".csv").read().splitlines() == [
            "rho2,quantile_pct,method_or_gamma,median_lower,n_informative",
            "0.5,75,0.0,-inf,0",
            "0.5,90,0.0,1.0584677160174503,3",
            "0.5,75,0.5,-0.18042128753324146,3",
            "0.5,90,0.5,1.0584677160174503,3",
        ]

    def test_coverage_study(self, tmp_path):
        code, prefix = run_cli(
            ["simulate", "--study", "coverage", "--procedure", "single-quantile",
             "--replications", "10", "--n", "16", "--seed", "10",
             "--mc-draws", "2000"], tmp_path)
        assert code == 0
        out = json.loads(open(prefix + ".json").read())
        assert 0.0 <= out["coverage"] <= 1.0


    def test_coverage_uses_quantiles(self, tmp_path, monkeypatch):
        import qite.cli
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("quantiles"))
            return coverage_audit(*args, **kwargs)

        coverage_audit = qite.cli.coverage_audit
        monkeypatch.setattr(qite.cli, "coverage_audit", spy)
        code, _ = run_cli(
            ["simulate", "--study", "coverage", "--procedure", "superpopulation",
             "--replications", "2", "--n", "16", "--seed", "10", "--mc-draws", "2000",
             "--quantiles", "0.25,0.5"], tmp_path)
        assert code == 0
        assert seen == [(0.25, 0.5)]

    @pytest.mark.parametrize("levels", ["0.9,0.5", "0.5,0.5", "0.9,0.5,0.9"])
    @pytest.mark.parametrize("study", [
        ("--study", "method-comparison"), ("--study", "gamma", "--gamma-grid", "0.5"),
        ("--study", "coverage", "--procedure", "multi-quantile"),
        ("--study", "coverage", "--procedure", "single-quantile")])
    def test_unsorted_and_repeated_quantiles(self, tmp_path, study, levels):
        base = ["simulate", *study, "--n", "20", "--replications", "2", "--s", "2",
                "--seed", "3", "--mc-draws", "2000"]
        code, prefix = run_cli(base + ["--quantiles", levels], tmp_path)
        assert code == 0
        if study[1] == "method-comparison":
            # the rows of the sorted distinct levels, one per method and listed level
            _, sorted_prefix = run_cli(base + ["--quantiles", "0.5,0.9"], tmp_path, "sorted")
            rows = open(prefix + ".csv").read().splitlines()[1:]
            want = open(sorted_prefix + ".csv").read().splitlines()[1:]
            pcts = [str(round(float(q) * 100)) for q in levels.split(",")]
            assert set(rows) <= set(want) and [r.split(",")[1] for r in rows] == pcts * 3

    @pytest.mark.parametrize("study", ["method-comparison", "coverage"])
    def test_zero_replications_is_flag_error(self, tmp_path, capsys, study):
        code, prefix = run_cli(
            ["simulate", "--study", study, "--replications", "0", "--n", "16",
             "--mc-draws", "2000"], tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert "replications must be at least 1" in err and len(err.splitlines()) == 1
        assert not os.path.exists(prefix + ".json")

    @pytest.mark.parametrize("study", ["method-comparison", "gamma", "coverage"])
    def test_single_unit_is_flag_error(self, tmp_path, capsys, study):
        code, prefix = run_cli(
            ["simulate", "--study", study, "--n", "1", "--replications", "2",
             "--mc-draws", "2000"], tmp_path)
        assert code == 3
        assert "n must be at least 2" in capsys.readouterr().err
        assert not os.path.exists(prefix + ".json")

    @pytest.mark.parametrize("study, rho2, message", [
        ("gamma", "0.1,0.5", "takes one --rho2 value"),
        ("coverage", "0.1,0.5", "takes one --rho2 value"),
        ("method-comparison", ",", "needs at least one value"),
    ])
    def test_rho2_count_is_flag_error(self, tmp_path, capsys, study, rho2, message):
        code, prefix = run_cli(
            ["simulate", "--study", study, "--rho2", rho2, "--replications", "2",
             "--n", "16", "--mc-draws", "2000"], tmp_path)
        assert code == 3
        assert message in capsys.readouterr().err
        assert not os.path.exists(prefix + ".json")


class TestResourceLimits:
    @pytest.mark.parametrize("error", [
        MemoryError(),
        MemoryError("Unable to allocate 7.45 GiB for an array"),
        ExactEnumerationError("C(40,20) = 137846528820 assignments exceed the exact cap"),
    ])
    def test_resource_errors_exit_5(self, toy_csv, tmp_path, monkeypatch, capsys, error):
        def exhausted(*args):
            raise error

        monkeypatch.setitem(qite.cli._COMMANDS, "test", exhausted)
        code, prefix = run_cli(["test", "--data", toy_csv, "--k", "8", "--c", "0"], tmp_path)
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert (str(error) or "out of memory") in err
        assert not os.path.exists(prefix + ".json")


class TestManifestAndReplay:
    def test_replay_bit_identical(self, toy_csv, tmp_path):
        args = ["quantile-ci", "--data", toy_csv, "--method", "m1",
                "--alpha", "0.1", "--all", "--seed", "11", "--mc-draws", "2000"]
        _, p1 = run_cli(args, tmp_path, "a")
        _, p2 = run_cli(args, tmp_path, "b")
        assert open(p1 + ".json").read() == open(p2 + ".json").read()
        assert open(p1 + ".csv").read() == open(p2 + ".csv").read()

    def test_manifest_contents(self, toy_csv, tmp_path):
        _, prefix = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", "m1", "--all",
             "--seed", "12", "--mc-draws", "2000"], tmp_path)
        man = json.loads(open(prefix + ".manifest.json").read())
        assert man["command"] == "quantile-ci"
        assert man["seed"] == 12
        assert man["mc_draws"] == 2000
        assert len(man["input_sha256"]) == 64
        assert "elapsed_seconds" in man
        assert man["flags"]["method"] == "m1"

    def test_env_seed_override(self, toy_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("QITE_SEED", "777")
        _, prefix = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", "m1", "--all",
             "--mc-draws", "2000"], tmp_path)
        man = json.loads(open(prefix + ".manifest.json").read())
        assert man["seed"] == 777

    def test_negative_infinity_serialization(self, toy_csv, tmp_path):
        _, prefix = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", "m1", "--alpha", "0.01",
             "--all", "--seed", "13", "--mc-draws", "2000"], tmp_path)
        fam = json.loads(open(prefix + ".json").read())
        assert any(e["lower"] == "-inf" for e in fam["entries"])
        csv_text = open(prefix + ".csv").read()
        assert "-inf" in csv_text


def test_console_entry_point():
    # the child imports the qite these tests import, installed or not
    import qite
    src = os.path.dirname(os.path.dirname(qite.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "qite.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "qite" in proc.stdout


def test_import_loads_no_scipy():
    # scipy is a test-only reference; the package and every subcommand run
    # on numpy and the standard library
    import qite
    src = os.path.dirname(os.path.dirname(qite.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, qite, qite.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# flag values at and beyond the edges of every documented range, mixed with
# values inside them so that most calls get past validation
EDGES = ["0", "0.5", "1", "nan", "inf", "-inf"]
INNER = ["0.05", "0.1", "0.3"]
EDGE_LISTS = ["", ",", "0", "1", "nan", "inf", "0.5,1", "1,2.5"]
LEVELS = ["0.5", "0.25,0.5", "0.8,1"]
OUTCOMES = [0.0, 0.5, 1.0, -1.0, 2.5, 3.5, -2.0, 4.0]
EXTREME_OUTCOMES = [sys.float_info.max / 4, -sys.float_info.max / 4, 1e308, -1e308]


@st.composite
def tiny_csv(draw):
    pairs = draw(st.booleans())   # matched pairs, one treated unit each
    if pairs:
        zs = [1, 0] * draw(st.integers(1, 4))
    else:
        extra = draw(st.integers(0, 6))
        zs = [1, 0] + draw(st.lists(st.sampled_from([0, 1]), min_size=extra, max_size=extra))
    ys = draw(st.lists(st.sampled_from(OUTCOMES), min_size=len(zs), max_size=len(zs)))
    if not draw(st.integers(0, 3)):
        ys[draw(st.integers(0, len(ys) - 1))] = draw(st.sampled_from(EXTREME_OUTCOMES))
    if pairs:
        return "z,y,stratum\n" + "".join(
            f"{z},{y!r},p{i // 2}\n" for i, (z, y) in enumerate(zip(zs, ys)))
    return "z,y\n" + "".join(f"{z},{y!r}\n" for z, y in zip(zs, ys))


@st.composite
def cli_call(draw):
    def edge(flag, inner=INNER, edges=EDGES):
        values = inner if draw(st.integers(0, 3)) else edges
        return f"--{flag}={draw(st.sampled_from(values))}"

    edge_list = lambda flag, inner=LEVELS: edge(flag, inner, EDGE_LISTS)
    pick = lambda *values: draw(st.sampled_from(values))
    # quantile-ci, and m1 within it, are drawn twice as often as the rest,
    # so that pooled families with several distinct bounds exit 0: their
    # nesting depends on the order of pooling
    command = pick("quantile-ci", "quantile-ci", "test", "population-ci", "sensitivity",
                   "simulate")
    argv = [command, edge("alpha"), "--mc-draws=200"]
    if command == "quantile-ci":
        argv += [f"--method={pick('m1', 'm2', 'm1', 'm0')}", edge("gamma"),
                 pick("--all", edge_list("quantiles")), *pick((), ("--band",))]
    elif command == "test":
        argv += [f"--k={pick('0', '1', '2', 'n')}", edge("c", ["0", "-1.5", "2", "1.7e308"]),
                 edge("gamma"), f"--scope={pick('all', 'treated')}",
                 f"--method={pick('original', 'corrected')}"]
    elif command == "population-ci":
        argv += [pick("--superpopulation", "--population-size=6", "--population-size=40"),
                 edge_list("betas"), edge("split-gamma"),
                 f"--units={pick('all', 'treated', 'control')}"]
    elif command == "sensitivity":
        argv += [edge_list("gamma-grid", ["1", "1,2.5"]), f"--mode={pick('pairs', 'gaussian')}"]
    else:
        argv += [f"--study={pick('method-comparison', 'gamma', 'coverage')}",
                 f"--n={draw(st.integers(0, 5))}", "--replications=1", "--s=2",
                 edge("gamma"), edge_list("quantiles"),
                 *pick((), (edge_list("gamma-grid", INNER),))]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(csv_text=tiny_csv(), argv=cli_call())
def test_edge_flags_exit_cleanly(csv_text, argv):
    """Every call exits with a documented code and raises no RuntimeWarning.
    On success it reports confidence levels inside (0, 1) and nested
    families, writes JSON without NaN, and a rerun writes the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] != "simulate":
            with open(os.path.join(tmp, "data.csv"), "w") as fh:
                fh.write(csv_text)
            argv = argv + ["--data", os.path.join(tmp, "data.csv")]

        def run(name):
            prefix = os.path.join(tmp, name)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv + ["--output", prefix])
            return code, prefix

        code, prefix = run("out")
        assert code in (0, 2, 3, 5)
        if code == 0:
            with open(prefix + ".json") as fh:
                text = fh.read()
            payload = json.loads(text, parse_constant=lambda name: pytest.fail(name))
            families = payload["families"].values() if "families" in payload else [payload]
            families = [fam for fam in families if "level" in fam]
            assert all(0.0 < fam["level"] < 1.0 for fam in families)
            for fam in families:
                assert IntervalFamily.from_dict(fam).is_nested(), fam["entries"]
            _, again = run("again")
            with open(again + ".json") as fh:
                assert fh.read() == text
