import itertools
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qite import (
    ExperimentData, MonteCarloConfig, NullDistribution, RankTransform,
    null_distribution, null_for, prediction_intervals_treated, ranks, statistic,
    stratified_statistic, survival,
)
from qite import engine
from qite.engine import ExactEnumerationError, convolve_discrete, discrete_null
from qite.model import rng_for

NEG_INF = float("-inf")
W = RankTransform.wilcoxon()


class TestRanks:
    def test_distinct_values(self):
        assert ranks([3, 1, 2]).tolist() == [3, 1, 2]

    def test_tie_broken_by_index(self):
        assert ranks([1, 1]).tolist() == [1, 2]

    def test_sentinel_ordering(self):
        assert ranks([NEG_INF, 0, NEG_INF]).tolist() == [1, 3, 2]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=12))
    def test_permutation_property(self, values):
        r = ranks(values)
        assert sorted(r.tolist()) == list(range(1, len(values) + 1))
        # ranks respect value order
        v = np.asarray(values, dtype=float)
        assert np.all(v[np.argsort(r)] == np.sort(v, kind="stable"))


class TestStatistic:
    def test_wilcoxon_single_treated(self):
        assert statistic([1, 0], [2, 1], W) == 2.0

    def test_wilcoxon_treated_top_rank(self):
        assert statistic([1, 0, 0], [5, 1, 2], W) == 3.0

    def test_stephenson_hand_evaluation(self):
        # phi = (C(0,1), C(1,1), C(2,1)) = (0, 1, 2); treated ranks {1, 2}
        assert statistic([1, 1, 0], [1, 2, 3], RankTransform.stephenson(2)) == 1.0

    def test_effect_increasing(self):
        # lowering any treated outcome never increases the statistic
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            z = (rng.random(n) < 0.5).astype(int)
            if z.sum() in (0, n):
                continue
            y = rng.integers(-3, 4, n).astype(float)
            tr = RankTransform.stephenson(2) if rng.random() < 0.5 else W
            base = statistic(z, y, tr)
            i = rng.choice(np.flatnonzero(z == 1))
            y2 = y.copy()
            y2[i] -= rng.integers(1, 5)
            assert statistic(z, y2, tr) <= base


class TestStratifiedStatistic:
    def test_single_stratum_degenerate(self):
        d = ExperimentData.from_arrays([1, 0, 1], [3.0, 1.0, 2.0], ["a"] * 3)
        assert stratified_statistic(d, W) == statistic([1, 0, 1], [3.0, 1.0, 2.0], W)

    def test_hand_evaluation(self):
        d = ExperimentData.from_arrays([1, 0, 1, 0], [2.0, 1.0, 1.0, 2.0], ["a", "a", "b", "b"])
        assert stratified_statistic(d, W) == 3.0

    def test_rank_invariance_to_per_stratum_shift(self):
        d = ExperimentData.from_arrays([1, 0, 1, 0], [2.0, 1.0, 5.0, 6.0], ["a", "a", "b", "b"])
        shifted = ExperimentData.from_arrays(
            [1, 0, 1, 0], [102.0, 101.0, -5.0, -4.0], ["a", "a", "b", "b"])
        assert stratified_statistic(d, W) == stratified_statistic(shifted, W)


class TestNullDistributionCre:
    def test_exact_n3(self):
        nd = null_distribution(("cre", 3, 1), W, mode="exact")
        assert nd.support.tolist() == [1.0, 2.0, 3.0]
        assert survival(nd, 2.0) == pytest.approx(2 / 3)
        assert survival(nd, NEG_INF) == 1.0
        assert survival(nd, 3.0) == pytest.approx(1 / 3)

    def test_exact_n2(self):
        nd = null_distribution(("cre", 2, 1), W, mode="exact")
        assert survival(nd, 2.0) == pytest.approx(0.5)

    def test_survival_above_support(self):
        nd = null_distribution(("cre", 3, 1), W, mode="exact")
        assert survival(nd, 3.5) == 0.0

    def test_survival_nonincreasing(self):
        nd = null_distribution(("cre", 8, 3), RankTransform.stephenson(2), mode="exact")
        xs = np.linspace(-1, 20, 200)
        vals = [survival(nd, x) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_distribution_freeness_of_construction(self):
        # exact null depends only on (n, n_t, phi): same object from cache,
        # and an independently built copy is identical
        a = null_distribution(("cre", 6, 2), W, mode="exact")
        b = null_distribution(("cre", 6, 2), RankTransform.wilcoxon(), mode="exact")
        assert np.array_equal(a.support, b.support) and np.array_equal(a.tail, b.tail)

    def test_exact_cap(self):
        with pytest.raises(ExactEnumerationError):
            null_distribution(("cre", 40, 20), W, mode="exact", cap=1000)

    def test_mc_deterministic(self):
        from qite.engine import _null_cached

        mc = MonteCarloConfig(5_000, 77)
        a = null_distribution(("cre", 15, 7), W, mode="mc", mc=mc)
        _null_cached.cache_clear()   # rebuild from scratch, not from the cache
        b = null_distribution(("cre", 15, 7), W, mode="mc", mc=mc)
        assert np.array_equal(a.support, b.support) and np.array_equal(a.tail, b.tail)

    def test_mc_close_to_exact(self):
        mc = MonteCarloConfig(100_000, 3)
        ex = null_distribution(("cre", 10, 4), W, mode="exact")
        ap = null_distribution(("cre", 10, 4), W, mode="mc", mc=mc)
        xs = ex.support
        sup = max(abs(survival(ex, x) - survival(ap, x)) for x in xs)
        assert sup <= 0.01


class TestNullDistributionScre:
    def _enumerate_joint(self, sizes, transform):
        """Direct enumeration over the product of within-stratum assignments."""
        per = []
        for ns, nst in sizes:
            phi = transform.scores(ns)
            vals = [sum(sorted(phi[list(comb)])) for comb in
                    itertools.combinations(range(ns), nst)]
            per.append(vals)
        sums = [sum(combo) for combo in itertools.product(*per)]
        return np.array(sums)

    def test_convolution_matches_joint_enumeration(self):
        sizes = ((3, 1), (4, 2), (2, 1))
        nd = null_distribution(("scre", sizes), W, mode="exact")
        joint = self._enumerate_joint(sizes, W)
        support, counts = np.unique(joint, return_counts=True)
        probs = counts / counts.sum()
        assert np.array_equal(nd.support, support)
        tails = np.cumsum(probs[::-1])[::-1]
        assert np.allclose(nd.tail, tails, atol=1e-12)

    def test_one_stratum_equals_cre(self):
        a = null_distribution(("scre", ((5, 2),)), W, mode="exact")
        b = null_distribution(("cre", 5, 2), W, mode="exact")
        assert np.array_equal(a.support, b.support) and np.array_equal(a.tail, b.tail)

    def test_mc_close_to_exact(self):
        sizes = ((4, 2), (3, 1), (5, 2))
        mc = MonteCarloConfig(100_000, 5)
        ex = null_distribution(("scre", sizes), W, mode="exact")
        ap = null_distribution(("scre", sizes), W, mode="mc", mc=mc)
        sup = max(abs(survival(ex, x) - survival(ap, x)) for x in ex.support)
        assert sup <= 0.01

    def test_per_stratum_transforms(self):
        trs = (W, RankTransform.stephenson(2))
        nd = null_distribution(("scre", ((2, 1), (3, 1))), trs, mode="exact")
        # stratum 1 contributes {1, 2}; stratum 2 contributes {0, 1, 2}
        assert nd.support.tolist() == [1.0, 2.0, 3.0, 4.0]


class TestExactCap:
    # a real-valued table makes almost every subset sum distinct, so the
    # convolved support passes the cap although each stratum fits it
    SIZES = ((10, 5),) * 3
    TABLE = RankTransform.from_table(np.cumsum(np.random.default_rng(0).random(10)))

    def test_auto_falls_back_to_monte_carlo(self):
        mc = MonteCarloConfig(2_000, 8)
        nd = null_distribution(("scre", self.SIZES), self.TABLE, mode="auto", mc=mc,
                               cap=5000)
        assert nd.provenance == ("mc", 2_000, 8)
        ref = null_distribution(("scre", self.SIZES), self.TABLE, mode="mc", mc=mc,
                                cap=5000)
        assert np.array_equal(nd.support, ref.support) and np.array_equal(nd.tail, ref.tail)

    def test_exact_mode_still_raises(self):
        with pytest.raises(ExactEnumerationError):
            null_distribution(("scre", self.SIZES), self.TABLE, mode="exact", cap=5000)

    def test_convolution_bounded_before_allocating(self):
        part = (np.arange(100.0), np.full(100, 0.01))
        with pytest.raises(ExactEnumerationError, match="100 by 100"):
            convolve_discrete([part, part], cap=5000)
        vals, _ = convolve_discrete([part, part], cap=10_000)
        assert vals.size == 199


class TestSerialization:
    def test_round_trip(self):
        nd = null_distribution(("cre", 6, 3), W, mode="exact")
        blob = json.dumps(nd.to_dict())
        back = NullDistribution.from_dict(json.loads(blob))
        assert np.array_equal(back.support, nd.support)
        for x in nd.support:
            assert survival(back, x) == survival(nd, x)

    def test_gaussian_round_trip(self):
        nd = NullDistribution("gaussian", ("asymptotic",), ("test",), mean=2.0, sd=1.5)
        back = NullDistribution.from_dict(json.loads(json.dumps(nd.to_dict())))
        assert survival(back, 2.7) == survival(nd, 2.7)
        assert survival(back, NEG_INF) == 1.0


class TestGaussianSurvival:
    @pytest.mark.parametrize("mean, sd", [(0.0, 1.0), (2.0, 1.5), (-3.5, 1e-3), (1e3, 40.0)])
    def test_matches_scipy_ndtr(self, mean, sd):
        from scipy.special import ndtr

        nd = NullDistribution("gaussian", ("asymptotic",), ("test",), mean=mean, sd=sd)
        xs = [mean + sd * z for z in np.linspace(-40.0, 40.0, 801)]
        xs += [0.0, -1e300, 1e300, float("inf")]
        for x in xs:
            assert abs(survival(nd, x) - float(ndtr((mean - x) / sd))) <= 1e-15, x
        assert survival(nd, NEG_INF) == 1.0

    def test_zero_sd_is_a_point_mass(self):
        nd = NullDistribution("gaussian", ("asymptotic",), ("test",), mean=2.0, sd=0.0)
        assert [survival(nd, x) for x in (NEG_INF, 1.0, 2.0, 2.5, float("inf"))] == [
            1.0, 1.0, 1.0, 0.0, 0.0]


def test_null_for_dispatches_on_strata():
    d = ExperimentData.from_arrays([1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0], ["a", "a", "b", "b"])
    nd = null_for(d, W)
    assert nd.design[0] == "scre"
    d2 = ExperimentData.from_arrays([1, 0], [1.0, 2.0])
    assert null_for(d2, W).design[0] == "cre"


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _argpartition_sampler(phi, n, n_t, mc, tag, stream):
    """The reference sampler: the same stream in chunks of 4e6 uniforms,
    each draw's n_t smallest by argpartition, scores summed sorted."""
    rng = rng_for(mc.seed, tag, stream)
    out = np.empty(mc.draws, dtype=float)
    pos = 0
    chunk = max(1, min(mc.draws, 4_000_000 // max(n, 1)))
    while pos < mc.draws:
        m = min(chunk, mc.draws - pos)
        u = rng.random((m, n))
        sel = np.argpartition(u, n_t - 1, axis=1)[:, :n_t]
        out[pos:pos + m] = np.sort(phi[sel], axis=1).sum(axis=1) if n_t else 0.0
        pos += m
    return out


def _threshold_sums(u, phi, n_t):
    weights = np.stack([phi, np.ones_like(phi)], axis=1)
    return engine._threshold_sums(u, weights, n_t, np.empty_like(u), np.empty_like(u))


class _Uniforms:
    """A stand-in generator serving the rows of u in order; copies and
    advances like a PCG64 stream of doubles."""

    def __init__(self, u):
        self.flat = u.ravel()
        self.pos = 0

    @property
    def bit_generator(self):
        return self

    def advance(self, steps):
        self.pos += steps

    def random(self, out):
        out.reshape(-1)[:] = self.flat[self.pos:self.pos + out.size]
        self.pos += out.size


INTEGER_TRANSFORMS = [W] + [RankTransform.stephenson(s) for s in range(2, 7)] + [
    RankTransform.from_table([0, 0, 0, 1, 1, 2, 3, 3, 3, 5, 8, 8, 13, 21]),
    RankTransform.from_table([-4, -4, -1, 0, 0, 0, 2, 2, 7, 7, 7, 9, 30, 30]),
]


class TestCountedExactNull:
    @pytest.mark.parametrize("transform", INTEGER_TRANSFORMS, ids=lambda t: t.label())
    def test_recursion_equals_enumeration(self, transform):
        for n in range(1, 15):
            phi = transform.scores(n)
            for n_t in range(n + 1):
                counted = engine._counted_subset_sums(phi, n_t, engine.EXACT_CAP_DEFAULT)
                assert counted is not None
                enumerated = engine._enumerated_subset_sums(phi, n, n_t)
                assert _bitwise_equal(counted[0], enumerated[0]), (n, n_t)
                assert _bitwise_equal(counted[1], enumerated[1]), (n, n_t)

    def test_stratified_convolution_equals_enumeration(self):
        sizes = ((6, 3), (5, 2), (7, 4))
        trs = (RankTransform.stephenson(3), INTEGER_TRANSFORMS[-1], W)
        parts = []
        for (ns, nst), tr in zip(sizes, trs):
            v, w = engine._enumerated_subset_sums(tr.scores(ns), ns, nst)
            parts.append((v, w / w.sum()))
        want = discrete_null(*convolve_discrete(parts))
        got = null_distribution(("scre", sizes), trs, mode="exact")
        assert _bitwise_equal(got.support, want.support)
        assert _bitwise_equal(got.tail, want.tail)

    def test_real_valued_scores_are_enumerated(self):
        phi = TestExactCap.TABLE.scores(10)
        assert engine._counted_subset_sums(phi, 5, engine.EXACT_CAP_DEFAULT) is None
        got = engine._exact_subset_sums(phi, 10, 5, engine.EXACT_CAP_DEFAULT)
        want = engine._enumerated_subset_sums(phi, 10, 5)
        assert all(_bitwise_equal(g, w) for g, w in zip(got, want))

    def test_wide_range_falls_back_to_enumeration(self):
        # Stephenson(6) sums span about 3.8e10 at n = 300: the count table
        # would pass the cap although C(300, 2) = 44,850 subsets fit it
        phi = RankTransform.stephenson(6).scores(300)
        assert engine._exact_float_sums(phi)
        assert engine._counted_subset_sums(phi, 2, engine.EXACT_CAP_DEFAULT) is None
        got = engine._exact_subset_sums(phi, 300, 2, engine.EXACT_CAP_DEFAULT)
        want = engine._enumerated_subset_sums(phi, 300, 2)
        assert all(_bitwise_equal(g, w) for g, w in zip(got, want))


def _sorted_merge(values, weights):
    """Reference merge: sort the distinct values and add each one's
    weights in input order."""
    vals, inverse = np.unique(values, return_inverse=True)
    return vals, np.bincount(inverse, weights=weights, minlength=vals.size)


def _sorted_convolution(parts, cap):
    """Reference convolution: merge each part's outer product with the
    atoms so far by sorting, after checking it against the cap."""
    acc_v, acc_w = np.zeros(1), np.ones(1)
    for v, w in parts:
        v = np.asarray(v)
        if acc_v.size * v.size > cap:
            raise ExactEnumerationError(
                f"convolving {acc_v.size} by {v.size} atoms exceeds cap {cap}; use Monte Carlo")
        acc_v, acc_w = _sorted_merge((acc_v[:, None] + v[None, :]).ravel(),
                                     (acc_w[:, None] * np.asarray(w)[None, :]).ravel())
    return acc_v, acc_w


EXACT_CAP = engine.EXACT_CAP_DEFAULT
# weights that are 0.0 or so small that their products underflow to 0.0
_TINY_WEIGHTS = st.sampled_from([0.0, 5e-324, 1e-300, 1e-170, 1e-160])
_WEIGHTS = st.one_of(st.floats(0.0, 1.0), _TINY_WEIGHTS)
# a lattice support as it is, shifted off the integers, or stretched wider
# than any cap drawn below
_SCALES = {"lattice": lambda v: v, "fraction": lambda v: v + 0.25 * (v % 2),
           "wide": lambda v: v * 1e7}


@st.composite
def _convolution_cases(draw):
    scale = _SCALES[draw(st.sampled_from(sorted(_SCALES)))]
    distinct = []
    for _ in range(draw(st.integers(1, 4))):
        pairs = draw(st.lists(st.tuples(st.integers(-4, 6), _WEIGHTS), min_size=1, max_size=6))
        v = np.array([float(a) for a, _ in pairs])
        if draw(st.booleans()):   # all-zero supports, as Stephenson at n = 2
            v = np.zeros(v.size) if draw(st.booleans()) else np.full(v.size, -0.0)
        distinct.append((scale(v), np.array([b for _, b in pairs])))
    # parts repeat, as the pairs of one transform share a part
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=8))
    cap = draw(st.sampled_from([3, 10, 40, 200, 10_000, EXACT_CAP, EXACT_CAP]))
    return distinct, picks, cap


class TestIntegerLattice:
    """Integer supports are merged and convolved by lattice offset; the
    results equal the sort-based reference bit for bit, and the cap is
    met at the same part with the same message."""

    @settings(max_examples=400, deadline=None)
    @given(_convolution_cases())
    def test_convolution_equals_sorted_reference(self, case):
        distinct, picks, cap = case
        parts = [distinct[i] for i in picks]
        runs = (lambda: convolve_discrete(parts, cap),
                lambda: engine._convolve(distinct, picks, cap))
        try:
            want = _sorted_convolution(parts, cap)
        except ExactEnumerationError as err:
            for run in runs:
                with pytest.raises(ExactEnumerationError) as got:
                    run()
                assert str(got.value) == str(err)
            return
        for run in runs:
            got = run()
            assert _bitwise_equal(got[0], want[0]) and _bitwise_equal(got[1], want[1])

    @pytest.mark.parametrize("sets", [3, 5])
    def test_wide_sparse_lattice_is_merged(self, sets):
        # Stephenson(6) scores of one treated unit in 30 span about 1.2e5
        # integers with 26 atoms: slice-adds over the lattice would cost far
        # more than the cap, so the parts are merged atom by atom
        v, w = engine._exact_subset_sums(RankTransform.stephenson(6).scores(30), 30, 1, EXACT_CAP)
        part = (v, w / w.sum())
        assert v.size == 26 and v.max() - v.min() > 1e5
        assert engine._lattice_steps([part], [0] * sets, EXACT_CAP) is None
        got = engine._convolve([part], [0] * sets, EXACT_CAP)
        want = _sorted_convolution([part] * sets, EXACT_CAP)
        assert _bitwise_equal(got[0], want[0]) and _bitwise_equal(got[1], want[1])

    def test_dense_slice_adds_fit_the_cap(self):
        # a dense step costs its atoms times (lattice length + the fixed
        # cost of a slice-add); a part that would pass the cap is merged
        part = (np.arange(40.0), np.full(40, 1 / 40))
        n = 1 + 39 * 3   # the lattice after three parts
        cap = (n + engine._SLICE_COST) * 40
        assert engine._lattice_steps([part], [0] * 4, cap) is not None
        assert engine._lattice_steps([part], [0] * 4, cap - 1) is None

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.integers(-60, 60).map(float),
                  st.sampled_from([-0.0, 0.5, -7.25, 3e9, 2.0 ** 53, -(2.0 ** 60)])),
        _WEIGHTS), min_size=1, max_size=40))
    def test_merge_equals_sorted_reference(self, atoms):
        values = np.array([a for a, _ in atoms])
        weights = np.array([b for _, b in atoms])
        got = engine._merge_atoms(values, weights)
        want = _sorted_merge(values, weights)
        assert _bitwise_equal(got[0], want[0]) and _bitwise_equal(got[1], want[1])

    def test_merge_of_draws_equals_sorted_reference(self):
        draws = np.random.default_rng(3).integers(-500, 20_000, 100_000).astype(float)
        got = engine._merge_atoms(draws, np.ones(draws.size))
        want = _sorted_merge(draws, np.ones(draws.size))
        assert _bitwise_equal(got[0], want[0]) and _bitwise_equal(got[1], want[1])

    # twenty strata of 8 to 16 units, about half treated
    STRATA = tuple((8 + (5 * s) % 9, (8 + (5 * s) % 9) // 2 + s % 3 - 1) for s in range(20))

    @pytest.mark.parametrize("flip", [False, True])
    def test_stratified_nulls_keep_their_provenance(self, flip):
        sizes = tuple((ns, ns - nst) if flip else (ns, nst) for ns, nst in self.STRATA)
        engine._null_cached.cache_clear()
        got = null_distribution(("scre", sizes), W)
        assert got.provenance == ("exact",)
        parts = []
        for ns, nst in sizes:
            v, w = engine._exact_subset_sums(W.scores(ns), ns, nst, EXACT_CAP)
            parts.append((v, w / w.sum()))
        want = discrete_null(*_sorted_convolution(parts, EXACT_CAP))
        assert _bitwise_equal(got.support, want.support)
        assert _bitwise_equal(got.tail, want.tail)
        # the convolved Stephenson supports pass the cap: they stay sampled
        mc = MonteCarloConfig(1_000, 5)
        for s in (3, 6):
            nd = null_distribution(("scre", sizes), RankTransform.stephenson(s), mc=mc)
            assert nd.provenance == ("mc", 1_000, 5)

    @pytest.mark.parametrize("gamma", [1.0, 2.2, 38.4])
    def test_pairs_tail_equals_sorted_reference(self, gamma):
        from qite.stratified import worst_case_tail

        rng = np.random.default_rng(30)
        z = np.ravel([rng.permutation([1, 0]) for _ in range(300)])
        data = ExperimentData(z, np.round(rng.normal(size=600), 1), np.repeat(np.arange(300), 2))
        got = worst_case_tail(data, W, gamma)
        p_hi = gamma / (1.0 + gamma)
        part = (W.scores(2), np.array([1.0 - p_hi, p_hi]))
        vals, wts = _sorted_convolution([part] * 300, EXACT_CAP)
        # at Gamma = 38.4 the lowest sums' weights underflow to 0.0 and
        # stay in the support
        assert vals.size == 301 and (gamma < 38.4 or wts[0] == 0.0)
        want = discrete_null(vals, wts)
        assert got.provenance == ("exact", "worst-case", gamma)
        assert _bitwise_equal(got.support, want.support)
        assert _bitwise_equal(got.tail, want.tail)


class TestThresholdSampler:
    @pytest.mark.parametrize("tag", [engine._TAG_CRE_NULL, engine._TAG_SCRE_NULL])
    @pytest.mark.parametrize("n,n_t,draws", [
        (40, 17, 20_000),   # 6,553-row blocks: the draws cross three boundaries
        (40, 1, 7_000),
        (40, 39, 7_000),
        (1000, 500, 700),   # 262-row blocks; the reference draws 4,000 rows at once
    ])
    @pytest.mark.parametrize("transform", [W, RankTransform.stephenson(4)],
                             ids=lambda t: t.label())
    def test_equals_argpartition_sampler(self, monkeypatch, tag, n, n_t, draws, transform):
        assert draws % (engine._MC_BLOCK // n) != 0
        fallbacks = []
        sorted_sums = engine._sorted_sums
        monkeypatch.setattr(engine, "_sorted_sums",
                            lambda *a: fallbacks.append(1) or sorted_sums(*a))
        mc = MonteCarloConfig(draws, 31)
        phi = transform.scores(n)
        for stream in (0, 3):
            got = engine._mc_subset_sums(phi, n, n_t, mc, tag, stream)
            assert _bitwise_equal(got, _argpartition_sampler(phi, n, n_t, mc, tag, stream))
        assert not fallbacks

    def test_real_valued_scores_use_sorted_sums(self):
        phi = TestExactCap.TABLE.scores(10)
        mc = MonteCarloConfig(3_000, 4)
        got = engine._mc_subset_sums(phi, 10, 5, mc, engine._TAG_SCRE_NULL, 2)
        want = _argpartition_sampler(phi, 10, 5, mc, engine._TAG_SCRE_NULL, 2)
        assert _bitwise_equal(got, want)

    def test_tied_uniform_at_threshold_takes_fallback(self, monkeypatch):
        n, n_t = 8, 3
        phi = RankTransform.stephenson(3).scores(n)
        u = np.random.default_rng(5).random((6, n))
        order = np.argsort(u[2])
        u[2, order[n_t]] = u[2, order[n_t - 1]]   # the n_t-th and next smallest tie
        assert _threshold_sums(u, phi, n_t) is None
        assert _threshold_sums(np.delete(u, 2, axis=0), phi, n_t) is not None

        class Crafted:   # a generator whose one block is u
            def random(self, out):
                assert out.shape == u.shape
                out[...] = u

        monkeypatch.setattr(engine, "rng_for", lambda *tags: Crafted())
        got = engine._mc_subset_sums(phi, n, n_t, MonteCarloConfig(6, 1), 0, 0)
        assert _bitwise_equal(got, engine._sorted_sums(u, phi, n_t))

    def test_sums_past_2_53_use_sorted_sums(self, monkeypatch):
        n, n_t = 2000, 1000
        phi = RankTransform.stephenson(6).scores(n)
        assert phi.sum() > 2.0 ** 53
        assert not engine._exact_float_sums(phi)

        def refuse(*args):
            raise AssertionError("threshold sums are not exact past 2**53")

        monkeypatch.setattr(engine, "_threshold_sums", refuse)
        mc = MonteCarloConfig(300, 6)
        got = engine._mc_subset_sums(phi, n, n_t, mc, engine._TAG_CRE_NULL, 0)
        want = _argpartition_sampler(phi, n, n_t, mc, engine._TAG_CRE_NULL, 0)
        assert _bitwise_equal(got, want)


class TestParallelSampler:
    """The draws split into one run per worker, each from an advanced copy
    of the stream; the null must not depend on the worker count."""

    @staticmethod
    def _count_runs(monkeypatch):
        runs = []
        run_blocks = engine._run_blocks
        monkeypatch.setattr(engine, "_run_blocks",
                            lambda *a: runs.append(threading.current_thread()) or run_blocks(*a))
        return runs

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    @pytest.mark.parametrize("tag", [engine._TAG_CRE_NULL, engine._TAG_SCRE_NULL])
    @pytest.mark.parametrize("n,n_t,draws", [
        (40, 17, 20_000),
        (40, 1, 7_000),
        (40, 39, 7_000),
        (1000, 500, 700),
    ])
    @pytest.mark.parametrize("transform", [W, RankTransform.stephenson(4)],
                             ids=lambda t: t.label())
    def test_equals_argpartition_sampler_for_any_worker_count(
            self, monkeypatch, workers, tag, n, n_t, draws, transform):
        monkeypatch.setattr(engine, "_WORKERS", workers)
        # every run ends inside a block: the cuts fall mid-block
        rows = engine._MC_BLOCK // (workers * n)
        assert draws * n > engine._MC_BLOCK and (draws // workers) % rows != 0
        fallbacks = []
        sorted_sums = engine._sorted_sums
        monkeypatch.setattr(engine, "_sorted_sums",
                            lambda *a: fallbacks.append(1) or sorted_sums(*a))
        runs = self._count_runs(monkeypatch)
        mc = MonteCarloConfig(draws, 31)
        phi = transform.scores(n)
        got = engine._mc_subset_sums(phi, n, n_t, mc, tag, 0)
        assert _bitwise_equal(got, _argpartition_sampler(phi, n, n_t, mc, tag, 0))
        assert len(runs) == workers
        assert not fallbacks

    def test_more_workers_than_cores_with_fast_thread_switching(self, monkeypatch):
        # the runs write disjoint slices of one output: a lost or misplaced
        # block would change the bits
        monkeypatch.setattr(engine, "_WORKERS", 7)
        runs = self._count_runs(monkeypatch)
        phi = RankTransform.stephenson(3).scores(233)
        mc = MonteCarloConfig(4_001, 13)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = engine._mc_subset_sums(phi, 233, 164, mc, engine._TAG_CRE_NULL, 0)
        finally:
            sys.setswitchinterval(interval)
        assert len(runs) == 7
        want = _argpartition_sampler(phi, 233, 164, mc, engine._TAG_CRE_NULL, 0)
        assert _bitwise_equal(got, want)

    def test_tied_row_in_a_later_run_takes_fallback(self, monkeypatch):
        n, n_t, draws = 40, 17, 7_000
        phi = W.scores(n)
        u = np.random.default_rng(6).random((draws, n))
        row = 6_000   # in the last of three runs, which starts at row 4,666
        order = np.argsort(u[row])
        u[row, order[n_t]] = u[row, order[n_t - 1]]
        fallbacks = []
        sorted_sums = engine._sorted_sums
        monkeypatch.setattr(engine, "_sorted_sums",
                            lambda *a: fallbacks.append(a[0].shape) or sorted_sums(*a))
        monkeypatch.setattr(engine, "rng_for", lambda *tags: _Uniforms(u))
        monkeypatch.setattr(engine, "_WORKERS", 3)
        got = engine._mc_subset_sums(phi, n, n_t, MonteCarloConfig(draws, 1), 0, 0)
        assert fallbacks == [(engine._MC_BLOCK // (3 * n), n)]
        assert _bitwise_equal(got, sorted_sums(u, phi, n_t))

    def test_no_thread_outlives_the_null(self, monkeypatch):
        monkeypatch.setattr(engine, "_WORKERS", 3)
        runs = self._count_runs(monkeypatch)
        engine._null_cached.cache_clear()
        before = threading.active_count()
        null_distribution(("cre", 233, 164), W, mode="mc", mc=MonteCarloConfig(3_001, 8))
        assert threading.active_count() == before
        # run 0 in the caller's thread, the others in pool threads
        assert len(runs) == 3 and runs.count(threading.current_thread()) == 1


class TestOneNullPerDesign:
    def test_one_label_twin_gets_the_cre_null(self):
        rng = np.random.default_rng(12)
        n = 30
        z = np.zeros(n, dtype=int)
        z[rng.permutation(n)[:13]] = 1
        y = np.round(rng.normal(0.0, 2.0, n) + z, 1)
        flat = ExperimentData.from_arrays(z, y)
        twin = ExperimentData.from_arrays(z, y, ["s"] * n)
        mc = MonteCarloConfig(500, 9)
        a = null_for(flat, W, mc=mc, cap=1000)
        engine._null_cached.cache_clear()
        b = null_for(twin, W, mc=mc, cap=1000)
        assert a.provenance == b.provenance == ("mc", 500, 9)
        assert _bitwise_equal(a.support, b.support) and _bitwise_equal(a.tail, b.tail)
        engine._null_cached.cache_clear()
        assert (prediction_intervals_treated(flat, W, 0.1, mc=mc)
                == prediction_intervals_treated(twin, W, 0.1, mc=mc))


class TestSurvivalOnArrays:
    """Survival at an array equals the scalar survival at each element, bit
    for bit, and keeps the array's shape."""

    def check(self, nd, xs):
        xs = np.array(xs, dtype=float)
        got = nd.survival(xs[:, None])
        assert got.shape == (xs.size, 1)
        assert [float(p).hex() for p in got.ravel()] == [
            float(nd.survival(float(x))).hex() for x in xs]

    def test_exact(self):
        nd = null_distribution(("cre", 9, 4), RankTransform.stephenson(3), mode="exact")
        self.check(nd, [NEG_INF, -1.0, *nd.support, 0.5 + nd.support[-1], float("inf"),
                        nd.support[3] - 1e-9])

    def test_monte_carlo(self):
        nd = null_distribution(("cre", 30, 15), W, mode="mc", mc=MonteCarloConfig(500, 3))
        # the +inf pseudo-atom ends the support; nothing lies past it
        assert nd.support[-1] == float("inf") and nd.survival(float("inf")) > 0.0
        self.check(nd, [NEG_INF, *nd.support[:5], nd.support[-2], nd.support[-2] + 0.5,
                        float("inf"), 1e300, 0.0])
        nd = discrete_null([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        self.check(nd, [3.0, 3.5, float("inf"), NEG_INF])   # 0 past the support

    @pytest.mark.parametrize("sd", [0.0, 1.5])
    def test_gaussian(self, sd):
        nd = NullDistribution("gaussian", ("asymptotic",), ("test",), mean=2.0, sd=sd)
        self.check(nd, [NEG_INF, -1e300, 0.3, 2.0, 2.0 + 1e-15, 7.1, float("inf"), 1e300])
