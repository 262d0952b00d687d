import numpy as np
import pytest

from qite import (
    ExperimentData, MonteCarloConfig, RankTransform, band, ci_count, ci_single,
    combine_treated_control, corrected_pvalue, intervals_from_treated_only,
    null_for, prediction_intervals_treated, pvalue_all, pvalue_treated,
    simultaneous_cis, switch_labels_negate,
)
from qite.cre import jump_grid
from qite.model import NEG_INF, OneSidedInterval
from qite.tails import CorrectionSpec, choose_kprime_single
from qite.worst_case import brute_force_min
from qite import cre, stratified

from conftest import GUARD_SENSITIVE, random_cre, teacher_shaped

W = RankTransform.wilcoxon()
MC = MonteCarloConfig(50_000, 31)


def dense_invert(data, transform, k_treated, alpha, dist):
    """Scan every region and grid point in order; first place with p > alpha."""
    grid = jump_grid(data)

    def p(c, s):
        return pvalue_treated(data, transform, k_treated, c, dist, tie_shift=s).value

    if p(grid[0], +1) > alpha:
        return OneSidedInterval(NEG_INF, False)
    for g in grid:
        if p(g, 0) > alpha:
            return OneSidedInterval(float(g), True)
        if p(g, -1) > alpha:
            return OneSidedInterval(float(g), False)
    raise AssertionError("p never exceeded alpha; impossible for alpha < 1")


class TestPvalues:
    def test_k0_is_one(self):
        d = ExperimentData.from_arrays([1, 0, 0], [5.0, 1.0, 2.0])
        assert pvalue_all(d, W, 0, 0.0).value == 1.0

    def test_enumeration_value(self):
        d = ExperimentData.from_arrays([1, 0, 0], [5.0, 1.0, 2.0])
        assert pvalue_all(d, W, 3, 0.0).value == pytest.approx(1 / 3)

    def test_large_c_limit(self):
        d = ExperimentData.from_arrays([1, 0, 0, 1], [5.0, 1.0, 2.0, 0.5])
        for k in range(5):
            assert pvalue_all(d, W, k, 1e9).value == 1.0
            assert pvalue_all(d, W, k, float("inf")).value == 1.0

    def test_monotone_in_c_and_k(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            d = random_cre(rng, n_max=8)
            dist = null_for(d, W)
            cs = sorted(rng.normal(0, 2, 5))
            for k in range(d.n + 1):
                ps = [pvalue_all(d, W, k, c, dist).value for c in cs]
                assert all(b >= a for a, b in zip(ps, ps[1:]))
            for c in cs:
                ps = [pvalue_all(d, W, k, c, dist).value for k in range(d.n + 1)]
                assert all(b <= a for a, b in zip(ps, ps[1:]))


class TestTreatedScope:
    def test_identity_with_all_scope(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = random_cre(rng)
            k = int(rng.integers(0, d.n_t + 1))
            c = float(rng.integers(-2, 3))
            a = pvalue_treated(d, W, k, c).value
            b = pvalue_all(d, W, d.n_c + k, c).value
            assert a == b

    def test_tie_hand_trace(self):
        # z=(1,0), y=(2,1), k=1, c=1: imputed (1,1), tie by index, t=1, G(1)=1
        d = ExperimentData.from_arrays([1, 0], [2.0, 1.0])
        res = pvalue_treated(d, W, 1, 1.0)
        assert res.statistic_min == 1.0
        assert res.value == 1.0

    def test_k_equals_nt_large_c(self):
        d = ExperimentData.from_arrays([1, 0, 1], [3.0, 1.0, 2.0])
        assert pvalue_treated(d, W, 2, 100.0).value == 1.0


class TestPredictionIntervals:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            d = random_cre(rng, n_max=7)
            dist = null_for(d, W)
            alpha = float(rng.uniform(0.1, 0.9))
            fam = prediction_intervals_treated(d, W, alpha, dist)
            for k in range(1, d.n_t + 1):
                want = dense_invert(d, W, k, alpha, dist)
                got = fam.interval(k)
                assert (got.lower, got.closed) == (want.lower, want.closed)

    def test_spec_instance_n4(self):
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        dist = null_for(d, W)
        fam = prediction_intervals_treated(d, W, 0.9, dist)
        assert fam.interval(1) == OneSidedInterval(2.0, True)
        assert fam.interval(2) == OneSidedInterval(3.0, True)

    def test_nested(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = random_cre(rng, n_max=9)
            fam = prediction_intervals_treated(d, W, 0.2)
            assert fam.is_nested()
            assert fam.simultaneous and fam.level == 0.8

    def test_extreme_alpha_bounds_equal_max_grid(self):
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        fam = prediction_intervals_treated(d, W, 0.99)
        grid = jump_grid(d)
        for _, iv in fam.entries:
            assert iv.lower <= grid[-1]
            assert iv.lower > NEG_INF

    def test_constant_shift_equivariance(self):
        base = ExperimentData.from_arrays([1, 1, 0, 0, 1], [3.0, 4.0, 1.0, 2.0, 0.0])
        delta = 7.0
        shifted = ExperimentData.from_arrays(
            base.z, np.where(base.z == 1, base.y + delta, base.y))
        f0 = prediction_intervals_treated(base, W, 0.5)
        f1 = prediction_intervals_treated(shifted, W, 0.5)
        for (k, a), (_, b) in zip(f0.entries, f1.entries):
            assert b.lower == a.lower + delta and b.closed == a.closed


class TestCombine:
    def test_level_and_size(self):
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        fam = combine_treated_control(d, W, 0.05)
        assert fam.level == pytest.approx(0.9)
        assert len(fam.entries) == d.n
        assert fam.is_nested()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, -0.1, float("nan")])
    def test_alpha_outside_half_interval_rejected(self, alpha):
        # each orientation runs at alpha, so the pooled level is 1 - 2*alpha:
        # alpha = 0.7 used to give a family at level -0.4
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 0.5\)"):
            combine_treated_control(d, W, alpha)

    def test_label_switch_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = random_cre(rng, n_max=8)
            a = combine_treated_control(d, W, 0.25)
            b = combine_treated_control(switch_labels_negate(d), W, 0.25)
            assert [(iv.lower, iv.closed) for _, iv in a.entries] == \
                [(iv.lower, iv.closed) for _, iv in b.entries]

    def test_uninformative_intervals_take_lowest_slots(self):
        rng = np.random.default_rng(8)
        d = random_cre(rng, n_max=8)
        fam = combine_treated_control(d, W, 0.3)
        lowers = [iv.lower for _, iv in fam.entries]
        finite_started = False
        for lo in lowers:
            if lo > NEG_INF:
                finite_started = True
            else:
                assert not finite_started   # -inf slots come first


class TestCorrectedPvalue:
    def test_zero_correction_region(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = random_cre(rng)
            k = int(rng.integers(0, d.n + 1))
            kp = max(0, k - d.n_c)
            c = float(rng.integers(-2, 3))
            res = corrected_pvalue(d, W, k, c, kp)
            assert res.correction == 0.0
            assert res.value == pvalue_all(d, W, k, c).value

    def test_k_equals_n_correction_zero(self):
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        for kp in range(0, 3):
            assert corrected_pvalue(d, W, 4, 0.0, kp).correction == 0.0

    def test_dominating_correction(self):
        # n=4, n_t=2, k=2, k'=2: correction P(HG(4,2,2) > 0) = 5/6
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        res = corrected_pvalue(d, W, 2, 0.0, 2)
        assert res.correction == pytest.approx(5 / 6)
        assert res.value <= 1.0

    def test_truncated_at_one(self):
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        res = corrected_pvalue(d, W, 2, 100.0, 2)
        assert res.value == 1.0


class TestCiSingle:
    def test_gamma_zero_low_quantile_whole_line(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = random_cre(rng)
            for k in range(1, d.n_c + 1):
                res = ci_single(d, W, k, 0.1, 0.0)
                assert res.interval == OneSidedInterval(NEG_INF, False)

    def test_k_equals_n_matches_prediction_interval(self):
        d = ExperimentData.from_arrays([1, 1, 0, 0, 1], [3.0, 4.0, 1.0, 2.0, 5.0])
        res = ci_single(d, W, d.n, 0.3, 0.5)
        assert res.correction == 0.0 and res.k_prime == d.n_t
        fam = prediction_intervals_treated(d, W, 0.3)
        assert res.interval == fam.interval(d.n_t)

    def test_alpha_consumed_warns(self):
        # tiny alpha with forced large k' burns the budget
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        res = ci_single(d, W, 2, 0.1, 0.9)
        if res.alpha_effective <= 0:
            assert res.warning is not None
            assert res.interval == OneSidedInterval(NEG_INF, False)

    def test_correction_consuming_budget_gives_flagged_whole_line(self, monkeypatch):
        # unreachable through the chooser, so force an oversized correction
        import qite.cre
        monkeypatch.setattr(qite.cre, "hypergeom_sf", lambda *args: 0.5)
        d = ExperimentData.from_arrays([1, 1, 0, 0, 1], [3.0, 4.0, 1.0, 2.0, 5.0])
        res = ci_single(d, W, 4, 0.2, 0.5, mc=MC)
        assert res.interval == OneSidedInterval(NEG_INF, False)
        assert res.correction == 0.5 and res.alpha_effective == 0.2 - 0.5
        assert res.warning == "correction consumed the error budget"

    def test_teacher_shaped_informative_above_threshold(self):
        d = teacher_shaped()
        s6 = RankTransform.stephenson(6)
        dist = null_for(d, s6, mc=MC)
        lowers = []
        for k in range(80, d.n + 1, 17):
            res = ci_single(d, s6, k, 0.1, 0.5, dist, MC)
            lowers.append(res.interval.lower)
        # monotone nesting and eventually informative
        assert all(b >= a for a, b in zip(lowers, lowers[1:]))
        assert lowers[-1] > NEG_INF


class TestCiCount:
    def test_small_threshold_gives_zero_lower(self):
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        lo, hi = ci_count(d, W, -100.0, 0.1, 0.5)
        assert (lo, hi) == (0, 4)

    def test_vacuous_alpha(self):
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        lo, hi = ci_count(d, W, 0.0, 1e-9, 0.5)
        assert (lo, hi) == (0, 4)

    def test_cross_op_consistency_with_ci_single(self):
        # n - k in the count interval iff the k-th quantile interval holds c
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = random_cre(rng, n_max=8)
            dist = null_for(d, W)
            c = float(rng.integers(-1, 3))
            lo, hi = ci_count(d, W, c, 0.2, 0.5, dist)
            members = set()
            for k in range(0, d.n + 1):
                kp = choose_kprime_single(d.n, d.n_t, k, 0.2, 0.5)
                if corrected_pvalue(d, W, k, c, kp, dist).value > 0.2:
                    members.add(d.n - k)
            assert lo == min(members) and hi == max(members)
            assert members == set(range(lo, hi + 1))

    def test_one_profile_serves_every_k(self, monkeypatch):
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(8):
            d = random_cre(rng, n_max=9)
            dist = null_for(d, W)
            c = float(rng.integers(-1, 3))
            members = [d.n - k for k in range(0, d.n + 1)
                       if corrected_pvalue(d, W, k, c, choose_kprime_single(
                           d.n, d.n_t, k, 0.2, 0.5), dist).value > 0.2]
            cases.append((d, dist, c, (min(members), d.n) if members else (0, d.n)))
        calls = []
        original = cre.min_stat_scre_profile

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cre, "min_stat_scre_profile", counted)
        for d, dist, c, want in cases:
            calls.clear()
            assert ci_count(d, W, c, 0.2, 0.5, dist) == want
            assert len(calls) == 1

    @pytest.mark.parametrize("c", [np.nan, 1.7e308])
    def test_threshold_beyond_outcome_bound_rejected(self, c):
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="c must be"):
            ci_count(d, W, c, 0.2, 0.5)


class TestSimultaneous:
    def test_j1_reduces_to_ci_single(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            d = random_cre(rng, n_max=9)
            dist = null_for(d, W)
            k = int(rng.integers(1, d.n + 1))
            single = ci_single(d, W, k, 0.2, 0.5, dist)
            fam = simultaneous_cis(d, W, [k], 0.2, 0.5, MC, dist)
            assert fam.interval(k) == single.interval

    def test_bonferroni_never_tighter(self):
        # splitting the budget per target is never better than the joint rule
        d = ExperimentData.from_arrays(
            [1, 1, 0, 0, 1, 0, 1, 0, 1, 0],
            [3.0, 4.0, 1.0, 2.0, 5.0, 0.0, 6.0, 1.5, 2.5, 3.5])
        ks = [6, 8, 10]
        dist = null_for(d, W)
        joint = simultaneous_cis(d, W, ks, 0.3, 0.5, MC, dist)
        alpha_each = 0.3 / len(ks)
        for k in ks:
            single = ci_single(d, W, k, alpha_each, 0.5, dist)
            assert joint.interval(k).lower >= single.interval.lower

    def test_nested_ks_nondecreasing(self):
        d = teacher_shaped()
        s6 = RankTransform.stephenson(6)
        ks = [117, 140, 163, 187, 210, 233]
        fam = simultaneous_cis(d, s6, ks, 0.1, 0.5, MC)
        assert fam.is_nested()

    @pytest.mark.parametrize("z, y, transform", GUARD_SENSITIVE)
    def test_each_k_prime_inverted_alone(self, z, y, transform):
        # a family reads a k's -inf guard at the previous k's bound; every k'
        # reads its own at grid[0], as a one-k inversion does
        d = ExperimentData.from_arrays(z, y)
        dist = null_for(d, transform)
        k_primes = tuple(range(1, d.n_t + 1))
        spec = CorrectionSpec(k_primes, 0.0, 0.5, 1.0)
        for alpha in np.linspace(0.02, 0.98, 49):
            fam = simultaneous_cis(d, transform, k_primes, alpha, dist=dist,
                                   corrections=spec)
            alone = [stratified._invert_each_k(stratified._ProfileCache(d, transform), dist,
                                               alpha, (kp,))[0] for kp in k_primes]
            assert [iv for _, iv in fam.entries] == alone

    def test_budget_exhaustion_yields_flagged_whole_lines(self):
        # normally unreachable (the chooser keeps the correction below
        # gamma*alpha), so force it with an oversized injected correction
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        spec = CorrectionSpec((1, 2), 0.5, 0.5, 1.0)
        fam = simultaneous_cis(d, W, [3, 4], 0.1, 0.5, MC, corrections=spec)
        assert fam.warnings
        assert all(iv.lower == NEG_INF for _, iv in fam.entries)

    def test_combine_sides_takes_better_bound(self):
        d = ExperimentData.from_arrays(
            [1, 1, 0, 0, 1, 0], [3.0, 4.0, 1.0, 2.0, 5.0, 0.0])
        ks = [5, 6]
        both = simultaneous_cis(d, W, ks, 0.4, 0.5, MC, combine_sides=True)
        t_side = simultaneous_cis(d, W, ks, 0.2, 0.5, MC)
        c_side = simultaneous_cis(switch_labels_negate(d), W, ks, 0.2, 0.5, MC)
        for k in ks:
            assert both.interval(k).lower == max(
                t_side.interval(k).lower, c_side.interval(k).lower)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2])
    @pytest.mark.parametrize("combine_sides", [False, True])
    def test_alpha_outside_unit_interval_rejected(self, alpha, combine_sides):
        # combine_sides halves alpha per side, so alpha = 1.5 used to reach
        # each side as 0.75 and yield a family at level -0.5
        d = ExperimentData.from_arrays([1, 1, 0, 0, 1, 0], [3.0, 4.0, 1.0, 2.0, 5.0, 0.0])
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            simultaneous_cis(d, W, [5, 6], alpha, 0.5, MC, combine_sides=combine_sides)


class TestBand:
    def test_single_top_index(self):
        d = ExperimentData.from_arrays([1, 1, 0, 0], [3.0, 4.0, 1.0, 2.0])
        fam = simultaneous_cis(d, W, [4], 0.4, 0.5, MC)
        b = band(fam, 4)
        assert b.interval(4) == fam.interval(4)
        for k in (1, 2, 3):
            assert b.interval(k).lower == NEG_INF

    def test_step_construction(self):
        fam_entries = ((2, OneSidedInterval(0.0, True)), (4, OneSidedInterval(1.0, True)))
        from qite.model import IntervalFamily
        fam = IntervalFamily(fam_entries, 0.9, True, "sample-quantiles-all")
        b = band(fam, 5)
        assert [iv.lower for _, iv in b.entries] == [NEG_INF, 0.0, 0.0, 1.0, 1.0]
        assert b.is_nested()


class TestM0Family:
    def test_matches_ci_single_gamma_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = random_cre(rng, n_max=9)
            dist = null_for(d, W)
            fam = intervals_from_treated_only(d, W, 0.2, dist)
            for k in range(1, d.n + 1):
                res = ci_single(d, W, k, 0.2, 0.0, dist)
                assert fam.interval(k) == res.interval


class TestPvalueIdentityBothRoutes:
    def test_identity_through_independent_minimizers(self):
        # both sides evaluated through the brute-force oracle and exact nulls
        rng = np.random.default_rng(14)
        for _ in range(60):
            d = random_cre(rng, n_max=6)
            dist = null_for(d, W)
            k = int(rng.integers(0, d.n_t + 1))
            c = float(rng.integers(-2, 3))
            p_treated = dist.survival(brute_force_min(d, W, "treated", k, c))
            p_all = dist.survival(brute_force_min(d, W, "all", d.n_c + k, c))
            assert p_treated == p_all


class TestCountCorrectionNeedsCompleteRandomization:
    def test_stratified_data_rejected(self):
        d = ExperimentData.from_arrays(
            [1, 0, 0, 1, 0, 1], [3.0, 1.0, 2.0, 4.0, 2.5, 1.5], ["a", "a", "a", "b", "b", "b"])
        calls = [
            lambda: corrected_pvalue(d, W, 4, 0.0, 1),
            lambda: ci_single(d, W, 4, 0.2, 0.5),
            lambda: ci_count(d, W, 0.0, 0.2, 0.5),
            lambda: simultaneous_cis(d, W, [4, 5], 0.2, 0.5, MC),
            lambda: simultaneous_cis(d, W, [4, 5], 0.2, 0.5, MC, combine_sides=True),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="complete randomization"):
                call()
