import numpy as np
import pytest

from qite import (
    ExperimentData, MonteCarloConfig, PopulationTarget, RankTransform,
    population_band, population_cis,
)
from qite.model import NEG_INF

W = RankTransform.wilcoxon()
MC = MonteCarloConfig(50_000, 23)


def medium_experiment(seed=0, n=30):
    rng = np.random.default_rng(seed)
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[: n // 2]] = 1
    y = np.round(rng.normal(0.0, 1.0, n) + z * 2.0, 3)
    return ExperimentData.from_arrays(z, y)


class TestTarget:
    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationTarget.finite(0, [0.5])
        with pytest.raises(ValueError):
            PopulationTarget.superpopulation([0.5, 0.5])
        with pytest.raises(ValueError):
            PopulationTarget.superpopulation([0.2, 1.2])
        with pytest.raises(ValueError):
            PopulationTarget("weird", (0.5,))

    def test_population_smaller_than_sample(self):
        d = medium_experiment()
        with pytest.raises(ValueError):
            population_cis(d, W, PopulationTarget.finite(10, [0.5]), 0.1, MC)

    def test_colliding_quantile_indices(self):
        d = medium_experiment()
        # ceil(30 * 0.51) == ceil(30 * 0.52) == 16
        with pytest.raises(ValueError):
            population_cis(d, W, PopulationTarget.finite(30, [0.51, 0.52]), 0.1, MC)


class TestFinitePopulation:
    def test_degenerate_population_equals_sample_indices(self):
        # N = n: sampling adds nothing; thresholds fall back to k = ceil(n b)
        d = medium_experiment(1)
        fam = population_cis(d, W, PopulationTarget.finite(d.n, [0.5, 0.9]), 0.2, MC)
        assert [b for b, _ in fam.entries] == [0.5, 0.9]
        assert fam.level == pytest.approx(0.8)

    def test_top_quantile_single_beta(self):
        d = medium_experiment(2)
        fam = population_cis(d, W, PopulationTarget.finite(d.n, [1.0]), 0.2, MC)
        assert len(fam.entries) == 1

    def test_bounds_widen_with_population_size(self):
        d = medium_experiment(3)
        betas = [0.6, 0.8]
        lows = []
        for N in (30, 60, 300, 3000):
            fam = population_cis(d, W, PopulationTarget.finite(N, betas), 0.2, MC)
            lows.append([fam.interval(b).lower for b in betas])
        for a, b in zip(lows, lows[1:]):
            assert all(x2 <= x1 + 1e-12 for x1, x2 in zip(a, b))

    def test_finite_approaches_super(self):
        d = medium_experiment(4)
        betas = [0.6, 0.8]
        sup = population_cis(d, W, PopulationTarget.superpopulation(betas), 0.2, MC)
        clip = lambda x: float(np.clip(x, -1e6, 1e6))
        gaps = []
        for N in (60, 600, 60_000):
            fin = population_cis(d, W, PopulationTarget.finite(N, betas), 0.2, MC)
            gaps.append(sum(
                abs(clip(fin.interval(b).lower) - clip(sup.interval(b).lower))
                for b in betas))
        assert gaps[-1] <= gaps[0] + 1e-12

    def test_reference_shape_bands_widen_with_population(self):
        from conftest import teacher_shaped

        d = teacher_shaped()
        s6 = RankTransform.stephenson(6)
        betas = [0.5, 0.6, 0.7, 0.8, 0.9]
        prev = None
        for N in (500, 1000, 5000):
            fam = population_cis(d, s6, PopulationTarget.finite(N, betas), 0.1, MC)
            lows = [fam.interval(b).lower for b in betas]
            if prev is not None:
                assert all(b <= a + 1e-12 for a, b in zip(prev, lows))
            prev = lows
        assert any(np.isfinite(prev))   # still informative at N = 5000

    def test_units_variants_run(self):
        d = medium_experiment(5)
        t = PopulationTarget.finite(100, [0.7])
        for units in ("all", "treated", "control"):
            fam = population_cis(d, W, t, 0.2, MC, units=units)
            assert len(fam.entries) == 1

    @pytest.mark.parametrize("units", ["treated", "control"])
    def test_group_units_reject_strata(self, units):
        # 4 strata of 10 with 1, 9, 2 and 8 treated: neither group is a
        # simple random sample of the population
        rng = np.random.default_rng(8)
        z = np.concatenate([np.arange(10) < t for t in (1, 9, 2, 8)]).astype(int)
        d = ExperimentData.from_arrays(z, np.round(rng.normal(0, 1, 40), 2),
                                       np.repeat(np.arange(4), 10))
        with pytest.raises(ValueError, match="4 strata"):
            population_cis(d, W, PopulationTarget.finite(100, [0.7]), 0.2, MC, units=units)
        fam = population_cis(d, W, PopulationTarget.finite(100, [0.7]), 0.2, MC)
        assert len(fam.entries) == 1

    def test_budget_exhaustion_warns(self):
        d = medium_experiment(6)
        fam = population_cis(d, W, PopulationTarget.finite(10_000, [0.5]), 0.01, MC)
        if fam.warnings:
            assert all(iv.lower == NEG_INF for _, iv in fam.entries)


class TestBand:
    def test_single_beta_band(self):
        d = medium_experiment(7)
        fam = population_cis(d, W, PopulationTarget.finite(d.n, [0.8]), 0.2, MC)
        b = population_band(fam, grid=np.array([0.5, 0.8, 0.95]))
        assert b.interval(0.5).lower == NEG_INF
        assert b.interval(0.8) == fam.interval(0.8)
        assert b.interval(0.95) == fam.interval(0.8)

    def test_band_nondecreasing(self):
        d = medium_experiment(8)
        fam = population_cis(d, W, PopulationTarget.finite(60, [0.5, 0.7, 0.9]), 0.2, MC)
        b = population_band(fam)
        lows = [iv.lower for _, iv in b.entries]
        assert all(y >= x for x, y in zip(lows, lows[1:]))
