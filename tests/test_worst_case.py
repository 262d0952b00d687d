import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qite import ExperimentData, RankTransform, min_stat_cre, min_stat_scre, ranks
from qite.cre import jump_grid, stratified_jump_grid
from qite.worst_case import (
    _cost_table, _cost_table_direct, _treated_ranks, brute_force_min,
    enumerate_allocations_min, min_stat_scre_profile,
)
from qite import worst_case
from qite.stratified import _ProfileCache

from conftest import DECIMALS, random_cre, random_scre

W = RankTransform.wilcoxon()
S2 = RankTransform.stephenson(2)


class TestMinStatCre:
    def test_one_slot(self):
        d = ExperimentData.from_arrays([1, 0, 0], [5.0, 1.0, 2.0])
        assert min_stat_cre(d, W, 2, 0.0) == 1.0

    def test_no_slots(self):
        d = ExperimentData.from_arrays([1, 0, 0], [5.0, 1.0, 2.0])
        assert min_stat_cre(d, W, 3, 0.0) == 3.0

    def test_all_slots_used_at_k0(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = random_cre(rng)
            phi = W.scores(d.n)
            assert min_stat_cre(d, W, 0, 1.23) == phi[: d.n_t].sum()

    def test_forced_configuration_at_k_equals_n(self):
        d = ExperimentData.from_arrays([1, 1, 0], [4.0, 2.0, 3.0])
        from qite import statistic
        c = 1.5
        assert min_stat_cre(d, W, 3, c) == statistic([1, 1, 0], [4.0 - c, 2.0 - c, 3.0], W)

    def test_infinite_thresholds_accepted(self):
        d = ExperimentData.from_arrays([1, 0, 0], [5.0, 1.0, 2.0])
        assert min_stat_cre(d, W, 3, float("inf")) == 1.0
        assert min_stat_cre(d, W, 3, float("-inf")) == 3.0

    def test_k_out_of_range(self):
        d = ExperimentData.from_arrays([1, 0], [1.0, 2.0])
        with pytest.raises(ValueError):
            min_stat_cre(d, W, 3, 0.0)


class TestOracleEquality:
    def test_matches_brute_force_cre(self):
        rng = np.random.default_rng(42)
        checks = 0
        for trial in range(120):
            d = random_cre(rng, n_max=6)
            tr = W if trial % 2 else S2
            grid = jump_grid(d)
            cs = list(grid) + [float(grid[0] - 1.0), float(grid[-1] + 1.0)]
            for k in range(d.n + 1):
                for c in cs:
                    for shift in (-1, 0, 1):
                        assert min_stat_cre(d, tr, k, c, shift) == \
                            brute_force_min(d, tr, "all", k, c, shift)
                        checks += 1
        assert checks > 5_000

    def test_matches_brute_force_scre(self):
        rng = np.random.default_rng(43)
        for trial in range(60):
            d = random_scre(rng, n_strata=2, size_max=3)
            tr = W if trial % 2 else S2
            grid = stratified_jump_grid(d)
            cs = list(grid[:4]) + [float(grid[-1] + 1.0)]
            for k in range(d.n + 1):
                for c in cs:
                    for shift in (-1, 0, 1):
                        direct = min_stat_scre(d, tr, k, c, shift)
                        assert direct == brute_force_min(d, tr, "all", k, c, shift)
                        assert direct == enumerate_allocations_min(d, tr, k, c, shift)

    def test_treated_scope_identity_via_oracle(self):
        rng = np.random.default_rng(44)
        for _ in range(150):
            d = random_cre(rng, n_max=6)
            k = int(rng.integers(0, d.n_t + 1))
            c = float(rng.integers(-2, 3))
            assert brute_force_min(d, W, "treated", k, c) == \
                brute_force_min(d, W, "all", d.n_c + k, c)


class TestMinStatScre:
    def test_single_stratum_equals_cre(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            d = random_cre(rng)
            ds = ExperimentData.from_arrays(d.z, d.y, ["s"] * d.n)
            k = int(rng.integers(0, d.n + 1))
            c = float(rng.integers(-2, 3))
            assert min_stat_scre(ds, W, k, c) == min_stat_cre(d, W, k, c)

    def test_capacity_nonbinding_at_k0(self):
        d = ExperimentData.from_arrays(
            [1, 0, 1, 1, 0], [3.0, 1.0, 2.0, 5.0, 4.0], ["a", "a", "b", "b", "b"])
        expected = W.scores(2)[:1].sum() + W.scores(3)[:2].sum()
        assert min_stat_scre(d, W, 0, 0.0) == expected

    def test_knapsack_hand_example(self):
        # two strata each (z,y) = [(1,5),(0,1)]; k=3, c=0: capacity 1,
        # f_s(0)=2 and f_s(1)=1, so the best split is 1 + 2 = 3
        d = ExperimentData.from_arrays(
            [1, 0, 1, 0], [5.0, 1.0, 5.0, 1.0], ["a", "a", "b", "b"])
        assert min_stat_scre(d, W, 3, 0.0) == 3.0

    def test_profile_is_nonincreasing(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = random_scre(rng, n_strata=3, size_max=4)
            prof = min_stat_scre_profile(d, W, 0.5)
            assert prof.size == d.n_t + 1
            assert np.all(np.diff(prof) <= 0)

    def test_one_treated_fast_path_matches_generic_dp(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = random_scre(rng, n_strata=3, size_max=4, one_treated=True)
            for c in (-1.0, 0.0, 2.0):
                for shift in (-1, 0, 1):
                    fast = min_stat_scre_profile(d, W, c, shift)
                    # generic DP path: force via a fake two-treated check is
                    # not possible, so compare against allocation enumeration
                    for k in range(d.n + 1):
                        want = enumerate_allocations_min(d, W, k, c, shift)
                        assert fast[min(d.n - k, d.n_t)] == want

    def test_one_treated_profile_shared_and_mixed_transforms(self):
        # one transform for every stratum (as one object or as equal copies)
        # indexes one score table; distinct transforms are grouped
        rng = np.random.default_rng(13)
        S3 = RankTransform.stephenson(3)
        for _ in range(30):
            d = random_scre(rng, n_strata=4, size_max=4, one_treated=True)
            copies = tuple(RankTransform.stephenson(3) for _ in range(d.n_strata))
            mixed = tuple(W if s % 2 else S3 for s in range(d.n_strata))
            for c in (-1.0, 0.0, 2.0):
                for shift in (-1, 0, 1):
                    shared = min_stat_scre_profile(d, S3, c, shift)
                    assert np.array_equal(shared, min_stat_scre_profile(d, copies, c, shift))
                    grouped = min_stat_scre_profile(d, mixed, c, shift)
                    for k in range(d.n + 1):
                        u = min(d.n - k, d.n_t)
                        assert shared[u] == enumerate_allocations_min(d, S3, k, c, shift)
                        assert grouped[u] == enumerate_allocations_min(d, mixed, k, c, shift)


class TestMonotonicity:
    def test_nondecreasing_in_c_and_k(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            d = random_cre(rng, n_max=8)
            cs = sorted(rng.normal(0, 2, 4))
            for k in range(d.n):
                for c1, c2 in zip(cs, cs[1:]):
                    assert min_stat_cre(d, W, k, c1) >= min_stat_cre(d, W, k, c2)
                assert min_stat_cre(d, W, k, cs[0]) <= min_stat_cre(d, W, k + 1, cs[0])

    def test_shift_ordering(self):
        # p nondecreasing in c means the minimized statistic is nonincreasing
        # in c, so across side evaluations: below >= at >= above
        rng = np.random.default_rng(14)
        for _ in range(40):
            d = random_cre(rng)
            grid = jump_grid(d)
            c = float(rng.choice(grid))
            k = int(rng.integers(0, d.n + 1))
            lo = min_stat_cre(d, W, k, c, tie_shift=+1)
            at = min_stat_cre(d, W, k, c, tie_shift=0)
            hi = min_stat_cre(d, W, k, c, tie_shift=-1)
            assert lo >= at >= hi


def test_brute_force_guard():
    d = ExperimentData.from_arrays([1, 0] * 10, list(range(20)))
    with pytest.raises(ValueError):
        brute_force_min(d, W, "all", 0, 0.0)


# With outcomes at 2**53, c = -2**53 is a grid point at which y - c rounds
# the distinct outcomes 0 and 1 to one value, tied with a control at 2**53:
# there the order of the outcomes and the order of the ranks disagree.
BIG = 2.0 ** 53


@st.composite
def stratified_designs(draw):
    """Small stratified design, its transform, and one threshold and side.

    Designs either give every stratum one treated unit (the closed-form
    one-treated path) or mix strata with one and with several treated
    units (the DP path).  Integer outcomes make ties likely.  Table scores
    are real-valued; the one-treated path subtracts savings from a total
    instead of summing per-stratum costs, so for designs it takes they are
    multiples of 1/16, exact in every summation order.
    """
    one_treated = draw(st.booleans())
    outcomes = [0.0, 1.0, 2.0, 3.0] + ([BIG, BIG + 2.0] if draw(st.booleans()) else [])
    S = draw(st.integers(1, 3))
    z, y, strata = [], [], []
    for s in range(S):
        ns = draw(st.integers(2, 3))
        nst = 1 if one_treated else draw(st.integers(1, ns - 1))
        z += draw(st.permutations([1] * nst + [0] * (ns - nst)))
        y += draw(st.lists(st.sampled_from(outcomes), min_size=ns, max_size=ns))
        strata += [s] * ns
    d = ExperimentData.from_arrays(z, np.array(y), strata)
    kind = draw(st.sampled_from(["wilcoxon", "stephenson", "table"]))
    if kind == "wilcoxon":
        tr = W
    elif kind == "stephenson":
        tr = RankTransform.stephenson(draw(st.integers(2, 3)))
    else:
        if all(nst == 1 for _, nst in d.stratum_sizes()):
            steps = draw(st.lists(st.integers(0, 40), min_size=3, max_size=3))
            steps = [v / 16.0 for v in steps]
        else:
            steps = draw(st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3))
        tr = RankTransform.from_table(np.cumsum(steps))
    grid = stratified_jump_grid(d)
    c = draw(st.sampled_from([*grid.tolist(), float("inf"), float("-inf")]))
    side = draw(st.sampled_from([-1, 0, 1]))
    return d, tr, c, side


def _assert_profile_matches_oracles(d, tr, c, side, k_oracle):
    prof = min_stat_scre_profile(d, tr, c, side)
    for k in range(d.n + 1):
        assert prof[min(d.n - k, d.n_t)] == enumerate_allocations_min(d, tr, k, c, side)
    assert prof[min(d.n - k_oracle, d.n_t)] == \
        brute_force_min(d, tr, "all", k_oracle, c, side)


class TestProfileProperties:
    @settings(max_examples=150, deadline=None)
    @given(case=stratified_designs(), data=st.data())
    def test_profile_equals_oracles(self, case, data):
        d, tr, c, side = case
        _assert_profile_matches_oracles(d, tr, c, side, data.draw(st.integers(0, d.n)))

    def test_rounded_tie_with_control(self):
        # stratum a: at c = -2**53 both treated outcomes impute to 2**53, tied
        # with the control.  The minimum evicts unit 2, the top-ranked one by
        # position, and keeps unit 0 below the control; evicting the larger
        # outcome y = 1 instead would keep unit 2 above it
        d = ExperimentData.from_arrays([1, 0, 1, 1, 1, 0], [1.0, BIG, 0.0, 2.0, 3.0, 1.0],
                                       ["a", "a", "a", "b", "b", "b"])
        z_a, y_a = d.z[:3], d.y[:3]
        assert y_a[0] - (-BIG) == y_a[2] - (-BIG) == y_a[1]
        R_a = _treated_ranks(z_a, y_a, -BIG, 0)
        assert _cost_table(R_a, W.scores(3)).tolist() == [4.0, 3.0, 3.0]
        for k in range(d.n + 1):
            for side in (-1, 0, 1):
                _assert_profile_matches_oracles(d, W, -BIG, side, k)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_s=st.integers(2, 300),
           side=st.sampled_from([-1, 0, 1]),
           c_kind=st.sampled_from(["grid", "inf", "-inf", "large"]))
    def test_cost_table_bitwise_equal_to_direct(self, seed, n_s, side, c_kind):
        # real-valued scores whose sums round, strata past numpy's pairwise
        # summation block, and ties from one-decimal outcomes; at c = 1e17
        # every treated outcome imputes to one value
        rng = np.random.default_rng(seed)
        n_st = int(rng.integers(1, n_s))
        z = np.zeros(n_s, dtype=np.int8)
        z[rng.permutation(n_s)[:n_st]] = 1
        y = np.round(rng.normal(0.0, 1.0, n_s), 1)
        tr = RankTransform.from_table(np.cumsum(rng.random(n_s) ** 3))
        c = {"grid": float(rng.choice(y) - rng.choice(y)), "inf": float("inf"),
             "-inf": float("-inf"), "large": 1e17}[c_kind]
        fast = _cost_table(_treated_ranks(z, y, c, side), tr.scores(n_s))
        direct = _cost_table_direct(z, y, tr, c, side)
        assert fast.tobytes() == direct.tobytes()


@st.composite
def ranked_designs(draw):
    """Design without strata or with up to three strata whose units are
    interleaved, tied integer outcomes, and one threshold and side."""
    S = draw(st.integers(0, 3))
    z, y, strata = [], [], []
    for s in range(max(S, 1)):
        ns = draw(st.integers(2, 5))
        nst = draw(st.integers(1, ns - 1))
        z += draw(st.permutations([1] * nst + [0] * (ns - nst)))
        y += draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=ns, max_size=ns))
        strata += [s] * ns
    order = draw(st.permutations(range(len(z))))
    d = ExperimentData.from_arrays([z[i] for i in order], np.array([y[i] for i in order]),
                                   [strata[i] for i in order] if S else None)
    grid = stratified_jump_grid(d)
    c = draw(st.sampled_from([*grid.tolist(), float("inf"), float("-inf")]))
    side = draw(st.sampled_from([-1, 0, 1]))
    return d, c, side


class TestTreatedRanks:
    @settings(max_examples=300, deadline=None)
    @given(case=ranked_designs())
    def test_equals_sorted_within_stratum_ranks(self, case):
        d, c, side = case
        imputed = np.where(d.z == 1, d.y - c, d.y)
        shift = np.where(d.z == 1, side, 0)
        want = []
        for idx in d.stratum_members():
            r = ranks(imputed[idx], shift[idx] if side else None)
            want.append(np.sort(r[d.z[idx] == 1]))
        got = _treated_ranks(d.z, d.y, c, side, d.strata)
        assert got.tolist() == np.concatenate(want).tolist()

    @settings(max_examples=200, deadline=None)
    @given(case=ranked_designs(), data=st.data())
    def test_rows_equal_single_threshold_calls(self, case, data):
        d, c, side = case
        cs = [c] + data.draw(st.lists(st.sampled_from(
            [*stratified_jump_grid(d).tolist(), float("inf"), float("-inf")]), max_size=5))
        rows = (len(cs), 1)
        got = _treated_ranks(np.tile(d.z, rows), np.tile(d.y, rows), cs, side,
                             None if d.strata is None else np.tile(d.strata, rows))
        assert got.shape == (len(cs), d.n_t)
        for row, c_b in zip(got.tolist(), cs):
            assert row == _treated_ranks(d.z, d.y, c_b, side, d.strata).tolist()


@st.composite
def cre_designs(draw):
    """Small completely randomized design (n <= 8, n_t = 1 included), its
    transform, and one threshold and side.  Integer outcomes make ties
    likely, one-decimal ones put ulp-close points on the jump grid; table
    scores are real-valued, so their sums round."""
    n = draw(st.integers(2, 8))
    n_t = draw(st.integers(1, n - 1))
    z = draw(st.permutations([1] * n_t + [0] * (n - n_t)))
    values = draw(st.sampled_from([[0.0, 1.0, 2.0, 3.0, 0.5], DECIMALS]))
    y = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    d = ExperimentData.from_arrays(z, np.array(y))
    kind = draw(st.sampled_from(["wilcoxon", "stephenson", "table"]))
    if kind == "wilcoxon":
        tr = W
    elif kind == "stephenson":
        tr = RankTransform.stephenson(draw(st.integers(2, 3)))
    else:
        steps = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
        tr = RankTransform.from_table(np.cumsum(steps))
    grid = jump_grid(d)
    c = draw(st.sampled_from([*grid.tolist(), float("inf"), float("-inf")]))
    side = draw(st.sampled_from([-1, 0, 1]))
    return d, tr, c, side


class TestOneStratumProfile:
    @settings(max_examples=200, deadline=None)
    @given(case=cre_designs(), data=st.data())
    def test_entries_equal_direct_cost_table(self, case, data):
        d, tr, c, side = case
        prof = min_stat_scre_profile(d, tr, c, side)
        direct = _cost_table_direct(d.z, d.y, tr, c, side)
        for u in range(d.n_t + 1):
            assert float(prof[u]).hex() == float(direct[u]).hex()
        k = data.draw(st.integers(0, d.n))
        assert prof[min(d.n - k, d.n_t)] == brute_force_min(d, tr, "all", k, c, side)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=cre_designs(), data=st.data())
    def test_batched_entries_equal_profile(self, case, data):
        d, tr, c, _ = case
        # d alone or stacked with data sets of its shape; entries at several
        # thresholds, equal ones often repeated, read at each tie side
        stack = [d] + [
            ExperimentData.from_arrays(data.draw(st.permutations(d.z.tolist())),
                                       data.draw(st.permutations(d.y.tolist())))
            for _ in range(data.draw(st.integers(0, 3)))]
        size = data.draw(st.integers(1, 8))
        sets = data.draw(st.lists(st.integers(0, len(stack) - 1), min_size=size,
                                  max_size=size))
        cs = [data.draw(st.sampled_from([c, *jump_grid(stack[j]).tolist()])) for j in sets]
        ms = data.draw(st.lists(st.integers(0, d.n_t), min_size=size, max_size=size))
        # the stack's profiles laid end to end
        at = [j * (d.n_t + 1) + m for j, m in zip(sets, ms)]
        original = worst_case._COST_BLOCK
        # several ranking and gathering blocks per call
        worst_case._COST_BLOCK = data.draw(st.sampled_from([1, 5, original]))
        try:
            reader = _ProfileCache(d if len(stack) == 1 else stack, tr)
            got = [reader.entries(cs, at, side) for side in (-1, 0, 1)]
        finally:
            worst_case._COST_BLOCK = original
        for side, at_side in zip((-1, 0, 1), got):
            for t, j, c_b, m in zip(at_side, sets, cs, ms):
                want = min_stat_scre_profile(stack[j], tr, c_b, side)[m]
                assert float(t).hex() == float(want).hex()

    def test_single_label_takes_the_one_stratum_path(self):
        # one treated unit and one stratum label: the entries are exact
        # statistics, not a total minus savings
        d = ExperimentData.from_arrays([0, 1, 0], [0.2, 0.5, 0.1], ["s"] * 3)
        tr = RankTransform.from_table([0.1, 0.7, 1.3])
        prof = min_stat_scre_profile(d, tr, 0.0)
        assert (prof[0], prof[1]) == (1.3, 0.1)

    def test_entry_out_of_range(self):
        d = ExperimentData.from_arrays([1, 0, 0], [5.0, 1.0, 2.0])
        with pytest.raises(IndexError):
            min_stat_scre_profile(d, W, 0.0)[2]
