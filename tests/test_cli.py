import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qite.cli
from qite.cli import main
from qite.engine import ExactEnumerationError

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

    def test_m2_quantiles(self, toy_csv, tmp_path):
        code, prefix = run_cli(
            ["quantile-ci", "--data", toy_csv, "--method", "m2", "--gamma", "0.5",
             "--quantiles", "0.5,0.75,1.0", "--alpha", "0.2", "--seed", "2",
             "--mc-draws", "2000"], tmp_path)
        assert code == 0
        fam = json.loads(open(prefix + ".json").read())
        assert [e["index"] for e in fam["entries"]] == [4, 6, 8]

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

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
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

    @pytest.mark.parametrize("study", ["method-comparison", "coverage"])
    def test_zero_replications_is_flag_error(self, tmp_path, capsys, study):
        code, prefix = run_cli(
            ["simulate", "--study", study, "--replications", "0", "--n", "16",
             "--mc-draws", "2000"], tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert "replications must be at least 1" in err and len(err.splitlines()) == 1
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
        def exhausted(args):
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
