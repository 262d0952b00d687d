import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from qite import MonteCarloConfig, choose_kprime_multi, choose_kprime_single, delta_h, delta_m
from qite import tails
from qite.tails import (
    binom_quantile, binom_sf, hypergeom_pmf_vector, hypergeom_quantile, hypergeom_sf,
)

MC = MonteCarloConfig(50_000, 1234)


def hypergeom_running_totals(N, n, ks):
    """Law of (draws below k_j)_j over every one of the C(N, n) samples."""
    law = {}
    for combo in itertools.combinations(range(N), n):
        below = tuple(sum(i < k for i in combo) for k in ks)
        law[below] = law.get(below, 0) + 1 / math.comb(N, n)
    return law


def multinomial_running_totals(n, betas):
    """Law of (draws below beta_j)_j over every sequence of n i.i.d. draws
    of the colors cut at betas."""
    probs = np.diff([0.0, *betas, 1.0])
    law = {}
    for seq in itertools.product(range(probs.size), repeat=n):
        below = tuple(sum(c <= j for c in seq) for j in range(len(betas)))
        law[below] = law.get(below, 0.0) + math.prod(probs[c] for c in seq)
    return law


def union_probability(law, k_primes):
    return math.fsum(p for below, p in law.items()
                     if any(b < kp for b, kp in zip(below, k_primes)))


def grid_kprimes(N, n, ks, budget, kappa):
    return [n - hypergeom_quantile(N, N - k, n, 1 - kappa * budget) for k in ks]


class TestHypergeom:
    def test_pmf_hand_values(self):
        x, p = hypergeom_pmf_vector(4, 2, 2)
        assert list(x) == [0, 1, 2]
        assert p == pytest.approx([1 / 6, 2 / 3, 1 / 6])

    def test_no_successes(self):
        x, p = hypergeom_pmf_vector(10, 0, 4)
        assert list(x) == [0] and list(p) == [1.0]
        assert hypergeom_sf(10, 0, 4, 0) == 0.0

    def test_quantile_hand_value(self):
        # CDF(1) = 5/6 < 0.95, so the 0.95 quantile is 2
        assert hypergeom_quantile(4, 2, 2, 0.95) == 2

    def test_pmf_sums_to_one(self):
        for N, K, n in [(50, 20, 10), (1_000, 400, 60), (10_000, 5_000, 100)]:
            _, p = hypergeom_pmf_vector(N, K, n)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_against_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            N = int(rng.integers(2, 200))
            K = int(rng.integers(0, N + 1))
            n = int(rng.integers(0, N + 1))
            ref = stats.hypergeom(N, K, n)
            x, p = hypergeom_pmf_vector(N, K, n)
            assert p == pytest.approx(ref.pmf(x), abs=1e-12)
            for x in range(-1, min(K, n) + 2):
                assert hypergeom_sf(N, K, n, x) == pytest.approx(ref.sf(x), abs=1e-11)
            qs = (0.05, 0.5, 0.95, 1.0)
            for q in qs:
                assert hypergeom_quantile(N, K, n, q) == int(ref.ppf(q))
            assert list(hypergeom_quantile(N, K, n, np.array(qs))) == [
                hypergeom_quantile(N, K, n, q) for q in qs]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hypergeom_pmf_vector(4, 5, 2)
        with pytest.raises(ValueError):
            hypergeom_pmf_vector(4, 2, 5)
        with pytest.raises(ValueError):
            hypergeom_quantile(4, 2, 2, np.array([0.5, 1.5]))


class TestBinom:
    def test_against_scipy(self):
        for n, p in [(10, 0.3), (25, 0.5), (40, 0.9)]:
            ref = stats.binom(n, p)
            for x in range(-1, n + 1):
                assert binom_sf(n, p, x) == pytest.approx(ref.sf(x), abs=1e-11)
            qs = (0.1, 0.5, 0.99, 1.0)
            for q in qs:
                assert binom_quantile(n, p, q) == int(ref.ppf(q))
            assert list(binom_quantile(n, p, np.array(qs))) == [
                binom_quantile(n, p, q) for q in qs]

    def test_degenerate_p(self):
        assert binom_sf(5, 0.0, 0) == 0.0
        assert binom_quantile(5, 1.0, 0.5) == 5


class TestDeltaH:
    def test_single_threshold_hand_value(self):
        assert delta_h([2], 4, 2, [2]) == pytest.approx(5 / 6)

    def test_kprime_zero_is_impossible_event(self):
        assert delta_h([0], 10, 4, [5]) == 0.0

    def test_single_threshold_is_hypergeom_sf_bitwise(self):
        for N, n, k in [(30, 12, 14), (233, 164, 117), (5000, 20, 4500)]:
            for kp in range(n + 1):
                assert delta_h([kp], N, n, [k], MC) == hypergeom_sf(N, N - k, n, n - kp)

    @pytest.mark.parametrize("N, n, ks", [
        (8, 4, [3, 6]), (10, 5, [2, 5, 8]), (12, 6, [0, 6, 12]), (9, 9, [3, 7]),
        (11, 3, [4, 9, 10]),
    ])
    def test_multi_vs_exhaustive_enumeration(self, N, n, ks):
        law = hypergeom_running_totals(N, n, ks)
        for kps in itertools.product(range(n + 1), repeat=len(ks)):
            exact = union_probability(law, kps)
            assert abs(delta_h(kps, N, n, ks) - exact) <= 1e-12, kps

    def test_mc_is_ignored(self):
        args = ([7, 12], 60, 20, [30, 45])
        assert delta_h(*args, MC) == delta_h(*args, MonteCarloConfig(10, 1))

    def test_monotone_in_kprime(self):
        vals = [delta_h([kp], 20, 8, [10]) for kp in range(0, 9)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            delta_h([1], 10, 4, [5, 3])
        with pytest.raises(ValueError):
            delta_h([9], 10, 4, [5])
        with pytest.raises(ValueError):
            delta_h([1], 10, 4, [3, 5])


class TestDeltaM:
    def test_single_hand_value(self):
        assert delta_m([2], 2, [0.5]) == pytest.approx(3 / 4)

    def test_kprime_zero(self):
        assert delta_m([0], 6, [0.3]) == 0.0

    def test_beta_zero_exhaustive(self):
        # beta_1 = 0 puts all mass in the upper cells
        n = 6
        for kp in range(0, n + 1):
            exact = delta_m([kp], n, [0.0])
            assert exact == pytest.approx(1.0 if kp > 0 else 0.0)

    def test_single_beta_is_binom_sf_bitwise(self):
        for n, beta in [(20, 0.5), (237, 0.7), (6, 0.3)]:
            for kp in range(n + 1):
                assert delta_m([kp], n, [beta], MC) == binom_sf(n, 1.0 - beta, n - kp)

    @pytest.mark.parametrize("n, betas", [
        (4, [0.3, 0.7]), (5, [0.0, 0.5, 1.0]), (6, [0.2, 0.5, 0.9]), (3, [0.1, 0.4]),
    ])
    def test_multi_vs_exhaustive(self, n, betas):
        law = multinomial_running_totals(n, betas)
        for kps in itertools.product(range(n + 1), repeat=len(betas)):
            exact = union_probability(law, kps)
            assert abs(delta_m(kps, n, betas) - exact) <= 1e-12, kps

    def test_validation(self):
        with pytest.raises(ValueError):
            delta_m([1, 2], 4, [0.7, 0.3])
        with pytest.raises(ValueError):
            delta_m([1, 2], 4, [0.3, 1.2])
        with pytest.raises(ValueError):
            delta_m([1], 4, [0.3, 0.7])


class TestChooseKprime:
    def test_gamma_zero_recovers_zero_correction(self):
        for n, n_t, k in [(10, 4, 3), (10, 4, 8), (20, 10, 15)]:
            kp = choose_kprime_single(n, n_t, k, 0.1, 0.0)
            assert kp == max(0, k - (n - n_t))
            assert hypergeom_sf(n, n - k, n_t, n_t - kp) == 0.0

    def test_k_equals_n_degenerate(self):
        assert choose_kprime_single(10, 4, 10, 0.1, 0.5) == 4

    def test_correction_bounded_by_budget(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            n_t = int(rng.integers(1, n))
            k = int(rng.integers(0, n + 1))
            alpha, gamma = 0.1, float(rng.uniform(0.0, 0.9))
            kp = choose_kprime_single(n, n_t, k, alpha, gamma)
            assert 0 <= kp <= n_t
            assert hypergeom_sf(n, n - k, n_t, n_t - kp) <= gamma * alpha + 1e-12

    def test_quantile_identity(self):
        n, n_t, k = 100, 50, 50
        kp = choose_kprime_single(n, n_t, k, 0.1, 0.5)
        assert kp == n_t - hypergeom_quantile(n, n - k, n_t, 1 - 0.05)

    def test_multi_j1_kappa_is_one(self):
        spec = choose_kprime_multi(20, 8, [12], 0.1, 0.5)
        assert spec.kappa == 1.0
        assert spec.k_primes == (choose_kprime_single(20, 8, 12, 0.1, 0.5),)

    def test_multi_correction_within_budget(self):
        spec = choose_kprime_multi(60, 30, [30, 42, 54], 0.1, 0.5)
        assert spec.correction <= 0.05
        assert 1 / 3 <= spec.kappa <= 1.0
        assert all(0 <= kp <= 30 for kp in spec.k_primes)
        assert spec.correction == delta_h(spec.k_primes, 60, 30, [30, 42, 54])

    def test_multi_correction_nondecreasing_in_kappa(self):
        N, n, ks = 60, 30, [30, 45]
        prev = -1.0
        for kappa in np.linspace(0.5, 1.0, 21):
            cur = delta_h(grid_kprimes(N, n, ks, 0.05, kappa), N, n, ks)
            assert cur >= prev - 1e-15
            prev = cur

    @pytest.mark.parametrize("N, n, ks, alpha, gamma", [
        (60, 30, [30, 42, 54], 0.1, 0.5),
        (40, 12, [20, 30], 0.2, 0.5),
        (25, 10, [5, 12, 20], 0.1, 0.8),
        (100, 50, [50, 60, 70, 80, 90], 0.05, 0.5),
    ])
    def test_multi_is_largest_fitting_grid_kappa(self, N, n, ks, alpha, gamma):
        budget = gamma * alpha
        grid = np.arange(math.ceil(1000 / len(ks)), 1001) / 1000
        corrs = [delta_h(grid_kprimes(N, n, ks, budget, kappa), N, n, ks)
                 for kappa in grid]
        assert all(b >= a - 1e-15 for a, b in zip(corrs, corrs[1:]))
        fits = [i for i, c in enumerate(corrs) if c <= budget]
        i = fits[-1] if fits else 0
        spec = choose_kprime_multi(N, n, ks, alpha, gamma)
        assert spec.kappa == grid[i]
        assert spec.k_primes == tuple(grid_kprimes(N, n, ks, budget, grid[i]))
        assert abs(spec.correction - corrs[i]) <= 1e-15

    def test_multinomial_kind(self):
        spec = choose_kprime_multi(0, 40, None, 0.1, 0.5,
                                   kind="multinomial", betas=[0.5, 0.8])
        assert spec.correction <= 0.05
        assert len(spec.k_primes) == 2
        assert spec.correction == delta_m(spec.k_primes, 40, [0.5, 0.8])

    def test_multinomial_kind_validates_betas(self):
        with pytest.raises(ValueError, match="increasing"):
            choose_kprime_multi(0, 40, None, 0.1, 0.5, kind="multinomial", betas=[0.8, 0.5])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            choose_kprime_multi(0, 40, None, 0.1, 0.5, kind="multinomial", betas=[0.5, 1.5])

    def test_bonferroni_floor_is_feasible(self):
        # at kappa = 1/J each per-target tail is within (gamma*alpha)/J, so
        # the union bound keeps the joint correction within budget
        N, n, ks = 60, 30, [30, 45, 54]
        gamma, alpha = 0.5, 0.1
        kps = grid_kprimes(N, n, ks, gamma * alpha, 1 / len(ks))
        union_bound = sum(hypergeom_sf(N, N - k, n, n - kp) for k, kp in zip(ks, kps))
        assert union_bound <= gamma * alpha + 1e-12
        assert delta_h(kps, N, n, ks) <= union_bound + 1e-15

    def test_population_shape_stays_within_budget(self):
        # N = 5000, a sample of 20, five quantile levels and a 0.05 budget:
        # a 1e5-draw estimate once admitted k' = (6, 8, 10, 12, 15), whose
        # exact correction is 0.0501
        ks = [math.ceil(5000 * b) for b in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert delta_h([6, 8, 10, 12, 15], 5000, 20, ks) > 0.05
        spec = choose_kprime_multi(5000, 20, ks, 0.1, 0.5)
        assert spec.correction <= 0.05
        assert spec.k_primes == (6, 7, 10, 12, 15)

    def test_memory_bounded_at_large_n(self):
        # n = 1000 draws, J = 5: the dense transition matrices alone would
        # hold 40 MB
        tails._choose_kprime_multi.cache_clear()   # measure a computation, not a lookup
        tracemalloc.start()
        try:
            choose_kprime_multi(2000, 1000, [1000, 1200, 1400, 1600, 1800], 0.05, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


def comb_row(m, top):
    """[C(m, x) for x in 0..top], by the exact integer recurrence."""
    row = [1]
    for x in range(top):
        row.append(row[-1] * (m - x) // (x + 1))
    return row


def exact_tails(terms, total, lo):
    """P(X > x) for x = lo..lo+len(terms)-2, from integer point masses."""
    out, upper = {}, 0
    for i in range(len(terms) - 1, 0, -1):
        upper += terms[i]
        out[lo + i - 1] = upper / total   # int / int rounds correctly
    return out


def exact_hypergeom_sf(N, K, n):
    """P(X > x) for every x of the support, by integer arithmetic."""
    lo, hi = max(0, n + K - N), min(K, n)
    good, bad = comb_row(K, n), comb_row(N - K, n)
    terms = [good[x] * bad[n - x] for x in range(lo, hi + 1)]
    return exact_tails(terms, math.comb(N, n), lo)


def exact_binom_sf(n, p):
    """P(X > x) for x = 0..n-1; p must be a dyadic rational."""
    a, d = float(p).as_integer_ratio()
    low, high = [1], [1]
    for _ in range(n):
        low.append(low[-1] * a)
        high.append(high[-1] * (d - a))
    terms = [c * low[x] * high[n - x] for x, c in enumerate(comb_row(n, n))]
    return exact_tails(terms, d**n, 0)


def exact_delta_h2(k_primes, N, n, ks):
    """delta_h at two targets, summed over the counts below each target."""
    (k1, k2), (kp1, kp2) = ks, k_primes
    lower, middle, upper = comb_row(k1, n), comb_row(k2 - k1, n), comb_row(N - k2, n)
    count = sum(lower[x1] * middle[x2] * upper[n - x1 - x2]
                for x1 in range(n + 1) for x2 in range(n + 1 - x1)
                if x1 < kp1 or x1 + x2 < kp2)
    return count / math.comb(N, n)


def assert_relative(got, want, rtol=1e-12):
    assert abs(got - want) <= rtol * want, (got, want)


class TestExactArithmetic:
    """The tails agree with integer arithmetic at the population sizes the
    CLI runs: N = 20, 233 and 1000 with their treated counts, and N = 5000
    with a sample of 20."""

    SHAPES = [(20, 10), (233, 164), (1000, 500), (5000, 20)]

    @pytest.mark.parametrize("N, n", SHAPES)
    def test_hypergeom_sf(self, N, n):
        for K in sorted({1, N // 10, N // 3, N // 2, 2 * N // 3, 9 * N // 10, N - 1}):
            for x, want in exact_hypergeom_sf(N, K, n).items():
                if want > 1e-300:   # below, doubles are subnormal
                    assert_relative(hypergeom_sf(N, K, n, x), want)

    @pytest.mark.parametrize("n", [20, 233, 1000, 5000])
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.875])
    def test_binom_sf(self, n, p):
        for x, want in exact_binom_sf(n, p).items():
            if want > 1e-300:
                assert_relative(binom_sf(n, p, x), want)

    @pytest.mark.parametrize("N, n, ks, k_primes", [
        (20, 10, (10, 15), [(3, 6), (2, 7)]),
        (233, 164, (117, 187), [(76, 127), (60, 140)]),
        (1000, 500, (500, 800), [(235, 388), (200, 400)]),
        (5000, 20, (2500, 4000), [(6, 13), (3, 15)]),
    ])
    def test_delta_h_two_targets(self, N, n, ks, k_primes):
        for kps in k_primes:
            assert_relative(delta_h(kps, N, n, ks), exact_delta_h2(kps, N, n, ks))


class TestConvergence:
    def test_degenerate_case_equal_by_construction(self):
        # beta = 0 with k' = n: every draw exceeds the cut on both models
        n, N = 6, 40
        assert delta_h([n], N, n, [0]) == 1.0
        assert delta_m([n], n, [0.0]) == 1.0

    def test_j1_closed_forms_close_at_large_population(self):
        gap = abs(delta_h([12], 10_000, 20, [5_000]) - delta_m([12], 20, [0.5]))
        assert gap <= 0.01

    def test_gap_decreasing_in_population_size(self):
        for betas, kps in [([0.5], [12]), ([0.5, 0.8], [12, 18])]:
            dm = delta_m(kps, 20, betas)
            gaps = [abs(delta_h(kps, N, 20, [math.ceil(N * b) for b in betas]) - dm)
                    for N in (100, 1_000, 10_000)]
            assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] <= 1e-3
