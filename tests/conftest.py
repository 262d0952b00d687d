import numpy as np
import pytest

from qite import ExperimentData, MonteCarloConfig, RankTransform


@pytest.fixture
def wilcoxon():
    return RankTransform.wilcoxon()


@pytest.fixture
def mc_small():
    return MonteCarloConfig(20_000, 404)


# one-decimal outcomes put ulp-close points on the jump grid, such as
# 0.3 - 0.1 = 0.19999999999999998 next to 0.2 - 0.0 = 0.2
DECIMALS = [round(0.1 * i, 1) for i in range(-3, 8)]

# one-decimal CREs on whose jump grids float ties make some k's -inf guard
# (tie_shift +1) depend on the grid index it is read at
GUARD_SENSITIVE = [
    ([1, 0, 1, 0, 0, 1, 0, 0], [0.4, -0.2, 0.4, -0.1, -0.1, 0.7, -0.3, 0.5],
     RankTransform.wilcoxon()),
    ([1, 1, 0, 1, 1, 1, 1, 0], [0.7, 0.6, -0.2, -0.2, 0.1, -0.2, -0.2, 0.1],
     RankTransform.stephenson(3)),
    ([1, 0, 1, 1, 1, 1, 1, 1], [-0.1, 0.3, -0.1, -0.1, 0.6, 0.5, 0.7, -0.2],
     RankTransform.wilcoxon()),
]


def random_cre(rng, n_max=7, integer_outcomes=True):
    """Small random experiment, ties likely when integer outcomes."""
    n = int(rng.integers(2, n_max + 1))
    n_t = int(rng.integers(1, n))
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[:n_t]] = 1
    if integer_outcomes:
        y = rng.integers(0, 5, n).astype(float)
    else:
        y = np.round(rng.normal(0, 1, n), 3)
    return ExperimentData.from_arrays(z, y)


def random_scre(rng, n_strata=2, size_max=3, one_treated=False):
    z, y, st = [], [], []
    for s in range(n_strata):
        ns = int(rng.integers(2, size_max + 1))
        nst = 1 if one_treated else int(rng.integers(1, ns))
        zz = np.zeros(ns, dtype=int)
        zz[rng.permutation(ns)[:nst]] = 1
        z += zz.tolist()
        y += rng.integers(0, 5, ns).tolist()
        st += [s] * ns
    return ExperimentData.from_arrays(z, np.array(y, dtype=float), st)


def teacher_shaped(seed=812):
    """Synthetic fixture with the shape n=233, n_t=164 (gain-score style)."""
    rng = np.random.default_rng(seed)
    n, n_t = 233, 164
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[:n_t]] = 1
    gains = rng.normal(2.0, 6.0, n) + z * rng.gamma(2.0, 1.2, n)
    y = np.round(gains, 1)
    return ExperimentData.from_arrays(z, y)
