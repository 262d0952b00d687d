import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qite import (
    ExperimentData, MonteCarloConfig, RankTransform, ci_single, combine_scre,
    intervals_from_treated_only, null_for, prediction_intervals_treated,
    pvalue_all, pvalue_scre, pvalue_sensitivity, sensitivity_curve, simultaneous_cis,
    stratified_statistic, worst_case_tail,
)
from qite.model import MAX_ABS_OUTCOME, NEG_INF, pool_one_sided, rng_for, switch_labels_negate
from qite import engine, stratified, worst_case
from qite.stratified import sensitivity_intervals

from conftest import DECIMALS, GUARD_SENSITIVE, random_cre, random_scre, teacher_shaped

W = RankTransform.wilcoxon()
MC = MonteCarloConfig(50_000, 17)


def pairs_data(scores_seed=0, S=3):
    rng = np.random.default_rng(scores_seed)
    z = np.tile([1, 0], S)
    y = np.round(rng.normal(1.0, 1.0, 2 * S) + (z == 1) * 0.8, 2)
    st = np.repeat(np.arange(S), 2)
    return ExperimentData.from_arrays(z, y, st)


def gamma_tail_oracle(data, transform, gamma, x):
    """Max over binary confounders of P(statistic >= x), enumerated exactly."""
    members = data.stratum_members()
    menus = []
    for idx in members:
        ns = idx.size
        phi = transform.scores(ns)
        menu = []
        for u in itertools.product((0, 1), repeat=ns):
            wts = np.exp(math.log(gamma) * np.array(u, dtype=float))
            menu.append((phi, wts / wts.sum()))
        menus.append(menu)
    best = 0.0
    for combo in itertools.product(*menus):
        vals = np.zeros(1)
        wts = np.ones(1)
        for v, p in combo:
            vals = (vals[:, None] + v[None, :]).ravel()
            wts = (wts[:, None] * p[None, :]).ravel()
        best = max(best, float(wts[vals >= x].sum()))
    return best


class TestPvalueScre:
    def test_single_stratum_equals_cre(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            flat = random_cre(rng)
            strat = ExperimentData.from_arrays(flat.z, flat.y, ["s"] * flat.n)
            k = int(rng.integers(0, flat.n + 1))
            c = float(rng.integers(-2, 3))
            assert pvalue_scre(strat, W, k, c).value == pvalue_all(flat, W, k, c).value

    def test_k0_is_one(self):
        d = random_scre(np.random.default_rng(2))
        assert pvalue_scre(d, W, 0, 0.0).value == 1.0

    def test_balanced_2x2_vs_enumeration(self):
        # two strata of size 2, one treated each: 4 equiprobable assignments
        d = ExperimentData.from_arrays(
            [1, 0, 0, 1], [3.0, 1.0, 2.0, 4.0], ["a", "a", "b", "b"])
        from qite.worst_case import brute_force_min
        for k in range(d.n + 1):
            for c in (-1.0, 0.5, 2.0):
                t_min = brute_force_min(d, W, "all", k, c)
                tail = 0.0
                for za in ((1, 0), (0, 1)):
                    for zb in ((1, 0), (0, 1)):
                        dd = ExperimentData.from_arrays(
                            list(za) + list(zb), d.y, ["a", "a", "b", "b"])
                        tail += stratified_statistic(dd, W) >= t_min
                assert pvalue_scre(d, W, k, c).value == pytest.approx(tail / 4)

    def test_treated_scope_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = random_scre(rng, n_strata=2, size_max=4)
            k = int(rng.integers(0, d.n_t + 1))
            c = float(rng.integers(-2, 3))
            a = pvalue_scre(d, W, k, c, scope="treated").value
            b = pvalue_scre(d, W, d.n_c + k, c, scope="all").value
            assert a == b


    @pytest.mark.parametrize("c", [math.nan, 2.0000001 * MAX_ABS_OUTCOME, -1.7e308])
    def test_threshold_beyond_outcome_bound_rejected(self, c):
        d = ExperimentData.from_arrays([1, 0, 1, 0], [MAX_ABS_OUTCOME, 0.0, 1.0, -2.0])
        with pytest.raises(ValueError, match="c must be"):
            stratified.pvalue(d, W, 1, c)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, 2 * MAX_ABS_OUTCOME,
                                   -2 * MAX_ABS_OUTCOME])
    def test_threshold_at_outcome_bound_accepted(self, c):
        # outcomes at the loader's bound minus the largest allowed threshold
        # stay finite: no overflow warning (an error under the test settings)
        d = ExperimentData.from_arrays([1, 0, 1, 0], [MAX_ABS_OUTCOME, -MAX_ABS_OUTCOME,
                                                      -MAX_ABS_OUTCOME, 1.0])
        assert 0.0 <= stratified.pvalue(d, W, 1, c).value <= 1.0


def _score_table(draw, n):
    """A non-integer score table for n units: its sums round."""
    kind = draw(st.sampled_from(["sqrt", "steps", "tenths"]))
    if kind == "sqrt":
        return RankTransform.from_table(np.sqrt(np.arange(1.0, n + 1)) / 3.0)
    values = st.floats(0.0, 5.0) if kind == "steps" else st.sampled_from([0.0, 0.1, 0.2, 0.3])
    return RankTransform.from_table(np.cumsum(draw(st.lists(values, min_size=n, max_size=n))))


def _draw_outcomes(draw, z, strata=None):
    """One data set of assignments z: outcomes from one value set, units
    in a drawn order."""
    n = z.size
    values = draw(st.sampled_from([list(range(5)), DECIMALS, [0.5]]))
    y = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)), dtype=float)
    order = list(draw(st.permutations(range(n))))
    return ExperimentData.from_arrays(z[order], y[order],
                                      None if strata is None else strata[order])


def _stack_families(draw, stack):
    """Families on a stack, in a drawn order: per data set one ascending
    family, several independent one-k families, or all ks."""
    n_t = stack[0].n_t
    families = []
    for d in range(len(stack)):
        kind = draw(st.sampled_from(["one", "independent", "all"]))
        if kind == "one":
            ks = draw(st.lists(st.integers(1, n_t), min_size=1, max_size=n_t, unique=True))
            families.append((d, tuple(sorted(ks))))
        elif kind == "independent":
            families += [(d, (k,)) for k in draw(st.lists(st.integers(1, n_t), min_size=1,
                                                          max_size=4))]
        else:
            families.append((d, tuple(range(1, n_t + 1))))
    return [families[i] for i in draw(st.permutations(range(len(families))))]


def _draw_null(draw, design, first, transform):
    """A null that the design's families may carry: exact or Monte Carlo,
    or for matched sets a pairs or gaussian sensitivity null."""
    null = draw(st.sampled_from({"pairs": ["exact", "mc", "pairs", "gaussian"],
                                 "sets": ["exact", "mc", "gaussian"]}.get(design,
                                                                           ["exact", "mc"])))
    mc = MonteCarloConfig(300, 3)
    if null in ("pairs", "gaussian"):
        return worst_case_tail(first, transform, draw(st.sampled_from([1.0, 1.5, 3.0])),
                               null, mc)
    return null_for(first, transform, mode=null, mc=mc)


@st.composite
def treated_family(draw):
    """Treated-unit families for every design and null: one stratum,
    strata of unequal shape (the allocation DP), matched pairs and larger
    matched sets with one treated unit each (the closed form), under
    exact, Monte Carlo, pairs and gaussian nulls.  One data set carries
    1-3 families, all ks or one k each; or a stack of 1-4 one-stratum data
    sets of one shape (n, n_t) carries a list of families.  Every family
    draws its own null and alpha.

    Returns the data set or the stack, the transform, the list of
    (data-set index, ks, null, alpha) families and the ranking block size.
    """
    design = draw(st.sampled_from(["cre", "strata", "pairs", "sets", "stack"]))
    if design in ("cre", "stack"):
        n_t = draw(st.integers(1, 7))
        shapes = [(n_t + draw(st.integers(1, 7)), n_t)]
    elif design == "strata":
        shapes = []
        for _ in range(draw(st.integers(2, 4))):
            n_s = draw(st.integers(2, 5))
            shapes.append((n_s, draw(st.integers(1, n_s - 1))))
    elif design == "pairs":
        shapes = [(2, 1)] * draw(st.integers(2, 7))
    else:
        shapes = [(draw(st.sampled_from([3, 4])), 1) for _ in range(draw(st.integers(2, 5)))]
    z = np.concatenate([[1] * n_st + [0] * (n_s - n_st) for n_s, n_st in shapes])
    strata = np.repeat(np.arange(len(shapes)), [n_s for n_s, _ in shapes])
    if design == "stack":
        data = [_draw_outcomes(draw, z) for _ in range(draw(st.integers(1, 4)))]
    else:
        data = _draw_outcomes(draw, z, None if design == "cre" else strata)
    first = data[0] if design == "stack" else data
    kind = draw(st.sampled_from(["wilcoxon", "stephenson", "table"]))
    if kind == "wilcoxon":
        transform = RankTransform.wilcoxon()
    elif kind == "stephenson":
        transform = RankTransform.stephenson(draw(st.integers(2, 5)))
    else:
        transform = _score_table(draw, z.size)
    if design == "stack":
        families = _stack_families(draw, data)
    else:
        families = [(0, range(1, first.n_t + 1) if draw(st.booleans())
                     else (draw(st.integers(1, first.n_t)),))
                    for _ in range(draw(st.integers(1, 3)))]
    alphas = st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8])
    families = [(d, ks, _draw_null(draw, design, first, transform), draw(alphas))
                for d, ks in families]
    block = draw(st.sampled_from([1, 5, worst_case._COST_BLOCK]))
    return data, transform, families, block


class TestInvertAllK:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(case=treated_family())
    def test_bit_identical_to_per_k_loop(self, case):
        data, transform, families, block = case
        # every family, under its own null and alpha, against the loop on
        # its own data set
        stack = data if isinstance(data, list) else [data]
        want = [stratified._invert_each_k(stratified._ProfileCache(stack[d], transform),
                                          dist, alpha, ks)
                for d, ks, dist, alpha in families]
        original = worst_case._COST_BLOCK
        worst_case._COST_BLOCK = block   # several ranking blocks per round
        try:
            got = stratified._invert_treated_family(
                stratified._ProfileCache(data, transform), families)
        finally:
            worst_case._COST_BLOCK = original
        assert [[(iv.lower, iv.closed) for iv in fam] for fam in got] == \
            [[(iv.lower, iv.closed) for iv in fam] for fam in want]

    @pytest.mark.parametrize("z, y, transform", GUARD_SENSITIVE)
    def test_guard_read_where_the_loop_reads_it(self, z, y, transform):
        # the loop reads a k's -inf guard at grid[0] after a -inf bound, else
        # at the previous k's index; on these data reading it anywhere else
        # changes a family
        d = ExperimentData.from_arrays(z, y)
        dist = null_for(d, transform)
        ks = range(1, d.n_t + 1)
        for alpha in (0.2, 0.5):
            assert stratified._invert_treated_family(
                stratified._ProfileCache(d, transform), [(0, ks, dist, alpha)]
            )[0] == stratified._invert_each_k(
                stratified._ProfileCache(d, transform), dist, alpha, ks)

    def test_bit_identical_on_teacher_shaped_data(self):
        d = teacher_shaped()
        for transform in (W, RankTransform.stephenson(6)):
            dist = null_for(d, transform, mc=MonteCarloConfig(5000, 8))
            for alpha in (0.05, 0.2):
                ks = range(1, d.n_t + 1)
                assert stratified._invert_treated_family(
                    stratified._ProfileCache(d, transform), [(0, ks, dist, alpha)]
                )[0] == stratified._invert_each_k(
                    stratified._ProfileCache(d, transform), dist, alpha, ks)

    def test_fewer_profiles_than_per_k_loop(self, monkeypatch):
        # profile reads: whole profiles by the loop, batches of entries by
        # the family (a CRE's entries build no profile)
        calls = []
        entries, profile = stratified._ProfileCache.entries, stratified._ProfileCache.profile

        def counted(read):
            def wrapper(self, c, *args):
                calls.append(args[-1])
                return read(self, c, *args)
            return wrapper

        monkeypatch.setattr(stratified._ProfileCache, "entries", counted(entries))
        monkeypatch.setattr(stratified._ProfileCache, "profile", counted(profile))
        d = teacher_shaped()
        dist = null_for(d, W, mc=MonteCarloConfig(5000, 8))
        ks = range(1, d.n_t + 1)
        profiles = stratified._ProfileCache(d, W)
        stratified._invert_each_k(profiles, dist, 0.05, ks)
        per_k = len(calls)
        calls.clear()
        stratified._invert_treated_family(profiles, [(0, ks, dist, 0.05)])
        # one batch of entries per bisection round, two for the -inf guards
        # and one for the closedness
        rounds = math.ceil(math.log2(profiles.grid.size))
        assert len(calls) <= rounds + 3
        assert calls[0] == +1 and calls[-2:] == [+1, 0]
        assert 20 * len(calls) < per_k


def cre_stack(seed, n_t, count=3, n=12):
    """One-decimal completely randomized data sets of one shape (n, n_t)."""
    rng = np.random.default_rng(seed)
    stack = []
    for _ in range(count):
        z = np.zeros(n, dtype=int)
        z[rng.permutation(n)[:n_t]] = 1
        stack.append(ExperimentData.from_arrays(z, np.round(rng.normal(0.0, 1.0, n) + z, 1)))
    return stack


def scre_stack(seed, n_t, count=3, n_s=6):
    """One-decimal stratified data sets of one design: two strata of n_s
    units with n_t / 2 treated each, the units of the strata interleaved."""
    rng = np.random.default_rng(seed)
    stack = []
    for _ in range(count):
        z = np.zeros(2 * n_s, dtype=int)
        for s in range(2):
            z[s * n_s + rng.permutation(n_s)[:n_t // 2]] = 1
        strata = np.repeat(["a", "b"], n_s)
        order = rng.permutation(2 * n_s)
        y = np.round(rng.normal(0.0, 1.0, 2 * n_s) + z, 1)
        stack.append(ExperimentData.from_arrays(z[order], y[order], strata[order]))
    return stack


S3 = RankTransform.stephenson(3)

# every family function that takes a list of data sets, at its own alpha
LIST_FORMS = {
    "prediction_intervals_treated": lambda data: prediction_intervals_treated(data, S3, 0.2),
    "intervals_from_treated_only": lambda data: intervals_from_treated_only(data, S3, 0.2),
    "combine_treated_control": lambda data: combine_scre(data, S3, 0.2),
    "simultaneous_cis": lambda data: simultaneous_cis(data, S3, [7, 10, 12], 0.4),
    "simultaneous_cis-sides": lambda data: simultaneous_cis(data, S3, [7, 10, 12], 0.4,
                                                            combine_sides=True),
    "ci_single": lambda data: ci_single(data, S3, 10, 0.4),
}


# the list forms that take stratified data sets
STRATA_FORMS = ("prediction_intervals_treated", "intervals_from_treated_only",
                "combine_treated_control")


class TestListForm:
    @pytest.mark.parametrize("name", LIST_FORMS)
    @pytest.mark.parametrize("n_t", [6, 4])   # balanced, and orientations with two nulls
    def test_list_equals_per_data_set_calls(self, name, n_t):
        family = LIST_FORMS[name]
        stacks = [cre_stack(n_t, n_t)]
        if name in STRATA_FORMS:
            stacks.append(scre_stack(n_t, n_t))
        for stack in stacks:
            assert family(stack) == [family(d) for d in stack]
            assert family(stack[:1]) == [family(stack[0])]

    @pytest.mark.parametrize("name", LIST_FORMS)
    def test_mixed_shapes_rejected(self, name):
        with pytest.raises(ValueError, match="one design"):
            LIST_FORMS[name](cre_stack(1, 6, 2) + cre_stack(2, 5, 1))

    def test_two_stratified_designs_rejected(self):
        d = random_scre(np.random.default_rng(3), n_strata=2, size_max=4)
        with pytest.raises(ValueError, match="one design"):
            prediction_intervals_treated([d, scre_stack(3, 4, 1)[0]], W, 0.2)
        assert prediction_intervals_treated([d, d], W, 0.2) == [
            prediction_intervals_treated(d, W, 0.2)] * 2

    def test_balanced_stratified_orientations_share_one_bisection(self, monkeypatch):
        d = scre_stack(5, 6, 1)[0]
        switched = switch_labels_negate(d)
        assert switched.stratum_sizes() == d.stratum_sizes()
        apart = [prediction_intervals_treated(x, S3, 0.2) for x in (d, switched)]
        calls = []
        invert = stratified._invert_treated_family

        def counted(*args):
            calls.append(args)
            return invert(*args)

        monkeypatch.setattr(stratified, "_invert_treated_family", counted)
        assert combine_scre(d, S3, 0.2) == pool_one_sided(
            [iv for fam in apart for _, iv in fam.entries], "sample-quantiles-all",
            1.0 - 2.0 * 0.2)
        assert len(calls) == 1

    def test_balanced_orientations_share_one_bisection(self, monkeypatch):
        calls = []
        invert = stratified._invert_treated_family

        def counted(*args):
            calls.append(args)
            return invert(*args)

        monkeypatch.setattr(stratified, "_invert_treated_family", counted)
        for n_t, per_orientation in ((6, 1), (4, 2)):
            stack = cre_stack(7, n_t)
            for name in ("combine_treated_control", "simultaneous_cis-sides"):
                calls.clear()
                LIST_FORMS[name](stack)
                assert len(calls) == per_orientation, (name, n_t)
            calls.clear()
            LIST_FORMS["simultaneous_cis"](stack[0])
            assert len(calls) == 1


class TestIntervalsScre:
    def test_single_stratum_identical_to_cre_path(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            flat = random_cre(rng, n_max=8)
            strat = ExperimentData.from_arrays(flat.z, flat.y, ["s"] * flat.n)
            a = prediction_intervals_treated(flat, W, 0.3)
            b = prediction_intervals_treated(strat, W, 0.3)
            assert [(k, iv.lower, iv.closed) for k, iv in a.entries] == \
                [(k, iv.lower, iv.closed) for k, iv in b.entries]

    @pytest.mark.parametrize("transform", [W, RankTransform.stephenson(3)])
    def test_cre_family_equals_single_label_family(self, transform):
        # n = 20 keeps both nulls exact, so they agree across the designs
        rng = np.random.default_rng(7)
        n = 20
        z = np.zeros(n, dtype=int)
        z[rng.permutation(n)[:9]] = 1
        y = np.round(rng.normal(0.0, 2.0, n) + z, 1)
        flat = ExperimentData.from_arrays(z, y)
        strat = ExperimentData.from_arrays(z, y, ["s"] * n)
        a = combine_scre(flat, transform, 0.1, mc=MC)
        b = combine_scre(strat, transform, 0.1, mc=MC)
        assert a == b

    def test_per_stratum_shift_invariance(self):
        d = ExperimentData.from_arrays(
            [1, 0, 1, 0, 0], [3.0, 1.0, 5.0, 6.0, 4.0], ["a", "a", "b", "b", "b"])
        shifted = ExperimentData.from_arrays(
            d.z, d.y + np.where(np.asarray(d.strata) == 0, 100.0, -50.0), d.strata)
        a = prediction_intervals_treated(d, W, 0.3)
        b = prediction_intervals_treated(shifted, W, 0.3)
        assert [iv.lower for _, iv in a.entries] == [iv.lower for _, iv in b.entries]

    def test_nested_and_simultaneous(self):
        d = random_scre(np.random.default_rng(5), n_strata=3, size_max=4)
        fam = prediction_intervals_treated(d, W, 0.2)
        assert fam.is_nested() and fam.simultaneous

    def test_combined_level(self):
        d = random_scre(np.random.default_rng(6), n_strata=2, size_max=4)
        fam = combine_scre(d, W, 0.1)
        assert fam.level == pytest.approx(0.8)
        assert len(fam.entries) == d.n

    def test_many_small_sets_complete_with_nested_bounds(self):
        # 512 matched sets of size three, one treated each
        rng = np.random.default_rng(99)
        S = 512
        z = np.tile([1, 0, 0], S)
        st = np.repeat(np.arange(S), 3)
        y = np.round(rng.normal(2.0, 1.0, 3 * S) + (z == 1) * rng.normal(1.2, 0.5, 3 * S), 2)
        d = ExperimentData.from_arrays(z, y, st)
        fam = prediction_intervals_treated(d, W, 0.1, mc=MC)
        assert fam.is_nested()
        assert sum(iv.lower > NEG_INF for _, iv in fam.entries) > 0


class TestWorstCaseTail:
    def test_gamma_one_equals_scre_null_exactly(self):
        d = pairs_data(7, S=6)
        a = worst_case_tail(d, W, 1.0, mode="pairs")
        b = null_for(d, W, mode="exact")
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.tail, b.tail)

    def test_pairs_match_binary_confounder_oracle(self):
        d = pairs_data(8, S=3)
        for gamma in (1.0, 2.0, 5.0):
            nd = worst_case_tail(d, W, gamma, mode="pairs")
            for x in list(nd.support) + [float(nd.support[0]) - 0.5,
                                         float(nd.support[-1]) + 0.5]:
                assert nd.survival(x) == pytest.approx(
                    gamma_tail_oracle(d, W, gamma, x), abs=1e-12)

    def test_pairs_gamma_two_mean(self):
        # per-pair treated-larger probability 2/3
        d = pairs_data(9, S=4)
        nd = worst_case_tail(d, W, 2.0, mode="pairs")
        probs = -np.diff(np.append(nd.tail, 0.0))
        mean = float((nd.support * probs).sum())
        assert mean == pytest.approx(4 * (1 / 3 + 2 * 2 / 3))

    def test_pairs_huge_gamma_degenerates_at_max(self):
        d = pairs_data(10, S=4)
        nd = worst_case_tail(d, W, 1e6, mode="pairs")
        top = 4 * 2.0   # every pair contributes the larger Wilcoxon score 2
        assert nd.survival(top) == pytest.approx(1.0, abs=1e-4)

    def test_gaussian_mean_formula(self):
        # triples, phi = (1,2,3), Gamma=2: best split mean is 2.25 per set
        z = [1, 0, 0] * 2
        y = [3.0, 2.0, 1.0] * 2
        st = [0, 0, 0, 1, 1, 1]
        d = ExperimentData.from_arrays(z, y, st)
        nd = worst_case_tail(d, W, 2.0, mode="gaussian")
        assert nd.mean == pytest.approx(2 * 2.25)
        assert nd.provenance[0] == "asymptotic"

    def test_gaussian_mean_nondecreasing_in_gamma(self):
        d = ExperimentData.from_arrays(
            [1, 0, 0] * 3, list(np.arange(9.0)), np.repeat(np.arange(3), 3))
        means = [worst_case_tail(d, W, g, mode="gaussian").mean
                 for g in (1.0, 1.5, 2.0, 4.0, 10.0)]
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_pairs_vs_gaussian_large_s(self):
        d = pairs_data(11, S=500)
        exact = worst_case_tail(d, W, 2.0, mode="pairs")
        gauss = worst_case_tail(d, W, 2.0, mode="gaussian")
        xs = np.quantile(exact.support, [0.1, 0.3, 0.5, 0.7, 0.9])
        for x in xs:
            assert abs(exact.survival(x) - gauss.survival(x)) <= 0.02

    def test_pairs_mode_rejects_mixed_sizes(self):
        d = ExperimentData.from_arrays(
            [1, 0, 1, 0, 0], [1.0, 2.0, 3.0, 4.0, 5.0], ["a", "a", "b", "b", "b"])
        with pytest.raises(ValueError):
            worst_case_tail(d, W, 2.0, mode="pairs")

    def test_singleton_set_rejected(self):
        with pytest.raises(Exception):
            d = ExperimentData.from_arrays([1, 1, 0], [1.0, 2.0, 3.0], ["a", "b", "b"])
            worst_case_tail(d, W, 2.0, mode="gaussian")

    def test_two_treated_per_set_rejected(self):
        d = ExperimentData.from_arrays(
            [1, 1, 0, 1, 0, 0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            ["a", "a", "a", "b", "b", "b"])
        with pytest.raises(ValueError):
            worst_case_tail(d, W, 2.0, mode="gaussian")

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            worst_case_tail(pairs_data(), W, 0.5, mode="pairs")

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    @pytest.mark.parametrize("mode", ["pairs", "gaussian"])
    def test_non_finite_gamma_rejected(self, gamma, mode):
        # nan < 1 is false, so a bare lower-bound check let nan through
        d = pairs_data() if mode == "pairs" else ExperimentData.from_arrays(
            [1, 0, 0] * 2, [3.0, 2.0, 1.0] * 2, [0, 0, 0, 1, 1, 1])
        with pytest.raises(ValueError, match="finite"):
            worst_case_tail(d, W, gamma, mode=mode)


def _one_shot_pairs_draws(data, transforms, gamma, mc):
    """The pairs Monte Carlo fallback as one (draws, S) array: the
    reference for the block runner."""
    rng = rng_for(mc.seed, stratified._TAG_SENS, data.n_strata)
    p_hi = gamma / (1.0 + gamma)
    low = np.array([tr.scores(2)[0] for tr in transforms])
    high = np.array([tr.scores(2)[1] for tr in transforms])
    take_high = rng.random((mc.draws, len(transforms))) < p_hi
    return np.where(take_high, high[None, :], low[None, :]).sum(axis=1)


class TestWorstCaseTailMonteCarlo:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_blocks_equal_one_shot_draws(self, monkeypatch, workers):
        # 300 pairs with real-valued score tables: the convolution passes the
        # cap, and the row sums are order-sensitive floats
        monkeypatch.setattr(engine, "_WORKERS", workers)
        S = 300
        d = pairs_data(30, S=S)
        rng = np.random.default_rng(31)
        transforms = tuple(RankTransform.from_table(sorted(rng.uniform(0.0, 3.0, 2)))
                           for _ in range(S))
        mc = MonteCarloConfig(3_001, 5)
        assert mc.draws * S > engine._MC_BLOCK   # several blocks and runs
        nd = worst_case_tail(d, transforms, 2.2, mode="pairs", mc=mc)
        assert nd.provenance == ("mc", 3_001, 5, "worst-case", 2.2)
        want = engine._mc_null(_one_shot_pairs_draws(d, transforms, 2.2, mc),
                               nd.provenance, nd.design)
        assert np.array_equal(nd.support, want.support)
        assert np.array_equal(nd.tail, want.tail)


class TestPvalueSensitivity:
    def test_gamma_one_equals_scre(self):
        d = pairs_data(12, S=5)
        for k in range(0, d.n_t + 1, 2):
            for c in (-0.5, 0.3):
                a = pvalue_sensitivity(d, W, k, c, 1.0, mode="pairs").value
                b = pvalue_scre(d, W, k, c, scope="treated").value
                assert a == b

    def test_monotone_in_gamma(self):
        d = pairs_data(13, S=5)
        for k in (2, 4):
            ps = [pvalue_sensitivity(d, W, k, 0.2, g, mode="pairs").value
                  for g in (1.0, 1.5, 2.0, 4.0, 10.0)]
            assert all(b >= a - 1e-12 for a, b in zip(ps, ps[1:]))

    def test_matches_full_oracle_small(self):
        # assignment-level oracle: max over binary u of P_u(t >= t_min)
        d = pairs_data(14, S=3)
        for gamma in (1.5, 3.0):
            for k in (1, 2, 3):
                res = pvalue_sensitivity(d, W, k, 0.0, gamma, mode="pairs")
                want = gamma_tail_oracle(d, W, gamma, res.statistic_min)
                assert res.value == pytest.approx(want, abs=1e-12)


class TestSensitivityCurve:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="Gamma grid is empty"):
            sensitivity_curve(pairs_data(), W, 0.2, [], mode="pairs")

    def test_gamma_grid_one_reduces_to_scre_intervals(self):
        d = pairs_data(15, S=5)
        curve = sensitivity_curve(d, W, 0.2, [1.0], mode="pairs")
        direct = prediction_intervals_treated(d, W, 0.2)
        fam = curve.family(1.0)
        assert [(iv.lower, iv.closed) for _, iv in fam.entries] == \
            [(iv.lower, iv.closed) for _, iv in direct.entries]

    def test_bounds_nonincreasing_in_gamma(self):
        d = pairs_data(16, S=6)
        curve = sensitivity_curve(d, W, 0.2, [1.0, 1.5, 2.5, 5.0], mode="pairs")
        for k in range(1, d.n_t + 1):
            lows = [fam.interval(k).lower for fam in curve.families]
            assert all(b <= a + 1e-12 for a, b in zip(lows, lows[1:]))

    def test_zero_exclusion_thresholds(self):
        rng = np.random.default_rng(20)
        S = 8
        z = np.tile([1, 0], S)
        y = np.round(rng.normal(0.0, 0.3, 2 * S) + (z == 1) * 3.0, 2)  # strong effects
        d = ExperimentData.from_arrays(z, y, np.repeat(np.arange(S), 2))
        curve = sensitivity_curve(d, W, 0.3, [1.0, 1.2], mode="pairs")
        ks = [k for k, g in curve.zero_exclusion if g is not None]
        assert ks, "strong all-positive effects should exclude zero somewhere"
        for k, g in curve.zero_exclusion:
            if g is not None:
                assert curve.family(g).interval(k).excludes_zero()

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            sensitivity_curve(pairs_data(), W, alpha, [1.0, 2.0], mc=MC)

    def test_profiles_shared_across_gamma_grid(self, monkeypatch):
        calls = []
        original = stratified.min_stat_scre_profile

        def counted(data, transforms, c, tie_shift=0):
            calls.append((float(c), tie_shift))
            return original(data, transforms, c, tie_shift)

        monkeypatch.setattr(stratified, "min_stat_scre_profile", counted)
        d = pairs_data(17, S=8)
        gammas = [1.0, 1.5, 2.5, 5.0]
        sensitivity_curve(d, W, 0.2, gammas, mode="pairs")
        assert calls
        assert len(calls) == len(set(calls))
        # each Gamma computed alone needs more profiles than the shared grid
        calls.clear()
        for g in gammas:
            sensitivity_intervals(d, W, 0.2, g, mode="pairs")
        assert len(calls) > len(set(calls))

    @pytest.mark.parametrize("mode", ["pairs", "gaussian"])
    def test_curve_is_one_bisection(self, mode, monkeypatch):
        # every Gamma's family rides in one call, each under its own null
        calls = []
        invert = stratified._invert_treated_family

        def counted(profiles, families):
            calls.append(len({id(dist) for _, _, dist, _ in families}))
            return invert(profiles, families)

        monkeypatch.setattr(stratified, "_invert_treated_family", counted)
        sensitivity_curve(pairs_data(17, S=8), W, 0.2, [1.0, 1.5, 2.5, 5.0], mode=mode)
        assert calls == [4]

    def test_zero_exclusion_reads_each_family_by_index(self):
        rng = np.random.default_rng(22)
        S = 20
        z = np.tile([1, 0], S)
        y = np.round(rng.normal(0.0, 0.5, 2 * S) + (z == 1) * 2.0, 1)
        d = ExperimentData.from_arrays(z, y, np.repeat(np.arange(S), 2))
        curve = sensitivity_curve(d, W, 0.2, [1.0, 1.3, 2.2, 4.0], mode="pairs")
        want = []
        for k in range(1, d.n_t + 1):
            passed = [g for g, fam in zip(curve.gammas, curve.families)
                      if fam.interval(k).excludes_zero()]
            want.append((k, passed[-1] if passed else None))
        assert curve.zero_exclusion == tuple(want)
        # several Gammas exclude zero at some k: the largest one is reported
        assert any(g not in (None, 1.0) for _, g in want)

    @pytest.mark.parametrize("mode, size", [("pairs", 2), ("gaussian", 3)])
    def test_families_equal_separate_calls(self, mode, size):
        rng = np.random.default_rng(21)
        S = 10
        z = np.tile([1] + [0] * (size - 1), S)
        y = np.round(rng.normal(0.0, 1.0, size * S) + (z == 1) * 1.0, 1)
        d = ExperimentData.from_arrays(z, y, np.repeat(np.arange(S), size))
        gammas = [1.0, 1.3, 2.0, 3.5]
        curve = sensitivity_curve(d, W, 0.2, gammas, mode=mode)
        for g, fam in zip(curve.gammas, curve.families):
            assert fam == sensitivity_intervals(d, W, 0.2, g, mode=mode)
