import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qite import (
    DataError, ExperimentData, IntervalFamily, MonteCarloConfig, OneSidedInterval,
    RankTransform, load_experiment, switch_labels_negate,
)
from qite.model import NEG_INF, pool_one_sided, quantile_index


class TestLoadExperiment:
    def test_minimal_file(self):
        data = load_experiment("z,y\n1,2.0\n0,1.0")
        assert data.n == 2 and data.n_t == 1
        assert data.y.tolist() == [2.0, 1.0]

    def test_no_control_units(self):
        with pytest.raises(DataError):
            load_experiment("z,y\n1,2.0\n1,1.0")

    def test_two_balanced_strata(self):
        data = load_experiment("z,y,stratum\n1,1,a\n0,2,a\n1,3,b\n0,4,b")
        assert data.n_strata == 2
        assert data.stratum_sizes() == ((2, 1), (2, 1))

    def test_missing_column(self):
        with pytest.raises(DataError):
            load_experiment("z,x\n1,2.0\n0,1.0")

    def test_non_binary_z(self):
        with pytest.raises(DataError):
            load_experiment("z,y\n2,2.0\n0,1.0")

    def test_non_numeric_y(self):
        with pytest.raises(DataError):
            load_experiment("z,y\n1,abc\n0,1.0")

    def test_outcome_bound(self):
        # every outcome minus a gap between two others stays finite
        bound = sys.float_info.max / 4
        d = load_experiment(f"z,y\n1,{bound!r}\n0,{-bound!r}\n1,{-bound!r}\n0,{bound!r}")
        assert np.all(np.isfinite(d.y[:, None] - (d.y[:, None] - d.y[None, :]).ravel()))
        for y in (np.nextafter(bound, np.inf), -1e308):
            with pytest.raises(DataError, match="outcomes must lie within"):
                ExperimentData.from_arrays([1, 0], [y, 0.0])

    def test_stratum_all_treated(self):
        with pytest.raises(DataError):
            load_experiment("z,y,stratum\n1,1,a\n1,2,a\n1,3,b\n0,4,b")

    def test_rows_preserved_in_file_order(self):
        data = load_experiment("z,y\n0,5\n1,4\n0,3\n1,2")
        assert data.y.tolist() == [5.0, 4.0, 3.0, 2.0]
        assert data.shuffle is None

    def test_shuffle_recorded_and_reproducible(self):
        text = "z,y\n0,5\n1,4\n0,3\n1,2\n1,9\n0,0"
        a = load_experiment(text, shuffle_seed=11)
        b = load_experiment(text, shuffle_seed=11)
        assert a.shuffle == b.shuffle
        assert a.shuffle[0] == 11
        assert a.y.tolist() == b.y.tolist()
        assert sorted(a.y.tolist()) == [0.0, 2.0, 3.0, 4.0, 5.0, 9.0]

    def test_unit_ids_kept(self):
        data = load_experiment("z,y,unit_id\n1,2.0,u1\n0,1.0,u2")
        assert data.unit_ids == ("u1", "u2")


class TestSwitchLabelsNegate:
    def test_definition(self):
        d = ExperimentData.from_arrays([1, 0], [2.0, 1.0])
        s = switch_labels_negate(d)
        assert s.z.tolist() == [0, 1]
        assert s.y.tolist() == [-2.0, -1.0]

    def test_involution(self):
        d = ExperimentData.from_arrays([1, 0, 1], [2.0, 1.0, -3.5])
        back = switch_labels_negate(switch_labels_negate(d))
        assert back.z.tolist() == d.z.tolist()
        assert back.y.tolist() == d.y.tolist()

    def test_strata_unchanged(self):
        d = ExperimentData.from_arrays([1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0], ["a", "a", "b", "b"])
        s = switch_labels_negate(d)
        assert s.strata.tolist() == d.strata.tolist()
        assert s.stratum_labels == d.stratum_labels


class TestRankTransform:
    def test_wilcoxon_scores(self):
        assert RankTransform.wilcoxon().scores(4).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_stephenson_formula(self):
        phi = RankTransform.stephenson(2).scores(3)
        assert phi.tolist() == [0.0, 1.0, 2.0]
        phi6 = RankTransform.stephenson(6).scores(8)
        assert phi6.tolist() == [0, 0, 0, 0, 0, 1, 6, 21]
        assert phi6[6] == math.comb(6, 5)

    def test_table_must_be_monotone(self):
        with pytest.raises(ValueError):
            RankTransform.from_table([1.0, 0.5])

    def test_stephenson_s_bound(self):
        with pytest.raises(ValueError):
            RankTransform.stephenson(1)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 10_000), s=st.integers(2, 12))
    def test_scores_monotone(self, n, s):
        phi = RankTransform.stephenson(s).scores(n)
        assert np.all(np.diff(phi) >= 0)
        assert np.all(np.diff(RankTransform.wilcoxon().scores(n)) >= 0)


class TestMonteCarloConfig:
    def test_defaults(self):
        assert MonteCarloConfig().draws == 100_000

    def test_positive_draws(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(0, 1)


class TestQuantileIndex:
    @pytest.mark.parametrize("n", [20, 40, 100, 233, 1000, 5000])
    def test_levels_read_as_decimals(self, n):
        # the float product rounds the wrong way at some levels: 0.55 * 100
        # is 55.00000000000001 and 0.14 * 5000 is 700.0000000000001
        for j in range(1, 101):
            assert quantile_index(j / 100, n) == -(-j * n // 100), (j, n)

    def test_known_float_misses(self):
        assert (quantile_index(0.55, 100), quantile_index(0.14, 5000)) == (55, 700)
        assert math.ceil(0.55 * 100) == 56


class TestIntervals:
    def test_contains_semantics(self):
        open_iv = OneSidedInterval(1.0, closed=False)
        closed_iv = OneSidedInterval(1.0, closed=True)
        assert not open_iv.contains(1.0) and closed_iv.contains(1.0)
        assert open_iv.contains(1.5)
        assert closed_iv.excludes_zero()

    def test_json_round_trip_with_infinities(self):
        fam = IntervalFamily(
            ((1, OneSidedInterval(NEG_INF, False)), (2, OneSidedInterval(0.5, True))),
            0.9, True, "sample-quantiles-all",
        )
        blob = fam.to_json()
        parsed = json.loads(blob)
        assert parsed["entries"][0]["lower"] == "-inf"
        back = IntervalFamily.from_dict(parsed)
        assert back.interval(1).lower == NEG_INF
        assert back.interval(2) == OneSidedInterval(0.5, True)
        assert back.level == 0.9 and back.simultaneous

    def test_pooling_assignment(self):
        # treated bounds {1, 3}, control bounds {2}: tau_(3) gets 3
        ivs = [OneSidedInterval(1.0, True), OneSidedInterval(3.0, True),
               OneSidedInterval(2.0, True)]
        fam = pool_one_sided(ivs, "sample-quantiles-all", 0.9)
        assert [iv.lower for _, iv in fam.entries] == [1.0, 2.0, 3.0]
        assert fam.is_nested()

    def test_pooling_closed_outranks_open_at_same_endpoint(self):
        ivs = [OneSidedInterval(1.0, False), OneSidedInterval(1.0, True)]
        fam = pool_one_sided(ivs, "t", 0.9)
        assert fam.interval(1).closed and not fam.interval(2).closed


class TestStrataIndex:
    def test_members_match_flatnonzero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            S = int(rng.integers(1, 6))
            sizes = rng.integers(2, 6, S)
            strata = np.repeat(np.arange(S), sizes)
            z = np.concatenate([[1, *rng.integers(0, 2, ns - 2), 0] for ns in sizes])
            perm = rng.permutation(strata.size)
            strata, z = strata[perm], z[perm]
            d = ExperimentData(z, rng.normal(size=strata.size), strata)
            members = d.stratum_members()
            assert len(members) == S
            for s, idx in enumerate(members):
                assert idx.tolist() == np.flatnonzero(strata == s).tolist()
            assert d.stratum_sizes() == tuple(
                (int(np.sum(strata == s)), int(np.sum(z[strata == s]))) for s in range(S))

    def test_members_read_only_and_built_once(self):
        d = ExperimentData.from_arrays([1, 0, 0, 1, 1, 0], [1.0] * 6,
                                       ["a", "b", "a", "b", "b", "a"])
        members = d.stratum_members()
        assert members is d.stratum_members()
        for idx in members:
            with pytest.raises(ValueError):
                idx[0] = 0
        cre = ExperimentData.from_arrays([1, 0], [1.0, 2.0])
        (idx,) = cre.stratum_members()
        assert idx.tolist() == [0, 1] and not idx.flags.writeable
        assert cre.stratum_sizes() == ((2, 1),)

    def test_negative_stratum_codes_rejected(self):
        with pytest.raises(DataError):
            ExperimentData(np.array([1, 0]), np.array([1.0, 2.0]), np.array([-1, -1]))

    def test_gapped_stratum_codes_rejected(self):
        z = np.array([1, 0, 1, 0, 0, 1])
        with pytest.raises(DataError, match="without gaps; code 1 has no units"):
            ExperimentData(z, np.arange(6.0), np.array([0, 0, 3, 3, 3, 3]))

    def test_first_lacking_stratum_named(self):
        # b has no treated unit and c no control unit: b comes first
        with pytest.raises(DataError, match="stratum 'b' lacks a treated or a control unit"):
            ExperimentData.from_arrays([1, 0, 0, 0, 1, 1], [1.0] * 6,
                                       ["a", "a", "b", "b", "c", "c"])
        with pytest.raises(DataError, match="stratum 1 lacks"):
            ExperimentData(np.array([1, 0, 1, 1, 0, 0, 0, 1]), np.arange(8.0),
                           np.array([0, 0, 1, 1, 2, 2, 3, 3]))

    def test_counts_cached(self):
        rng = np.random.default_rng(8)
        z = np.tile([1, 0], 5)
        y = np.round(rng.normal(size=10), 1)
        csv = "z,y,stratum\n" + "\n".join(
            f"{a},{b},s{i // 4}" for i, (a, b) in enumerate(zip(z, y)))
        built = [ExperimentData.from_arrays(z, y, [i // 4 for i in range(10)]),
                 ExperimentData.from_arrays(z[:9], y[:9]), load_experiment(csv)]
        for d in built + [switch_labels_negate(d) for d in built]:
            assert d.n_t == int(d.z.sum())
            assert d.n_strata == (1 if d.strata is None else int(d.strata.max()) + 1)
            assert {"n_t", "n_strata"} <= set(vars(d))
