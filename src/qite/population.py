"""Two-step inference for effect quantiles of larger populations.

Step one bounds the population quantile by a sample effect quantile, with a
hypergeometric (simple random sampling from N units) or multinomial (i.i.d.
sampling) failure probability.  Step two covers that sample quantile with
the randomization-based prediction intervals.  The error budget is split
between the steps, by default evenly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_MC, IntervalFamily, UNINFORMATIVE
from .stratified import combine_treated_control, prediction_intervals_treated
from .tails import choose_kprime_multi


@dataclass(frozen=True)
class PopulationTarget:
    """Finite population of size N >= n, or a superpopulation; quantile
    levels betas strictly increasing in [0, 1]."""

    kind: str                     # "finite" | "super"
    betas: tuple
    N: int = 0

    def __post_init__(self):
        if self.kind not in ("finite", "super"):
            raise ValueError(f"unknown population kind {self.kind!r}")
        betas = tuple(float(b) for b in self.betas)
        if not betas:
            raise ValueError("need at least one quantile level")
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("betas must be strictly increasing")
        if betas[0] < 0.0 or betas[-1] > 1.0:
            raise ValueError("betas must lie in [0, 1]")
        if self.kind == "finite" and self.N < 1:
            raise ValueError("finite population needs N >= 1")
        object.__setattr__(self, "betas", betas)

    @staticmethod
    def finite(N, betas):
        return PopulationTarget("finite", tuple(betas), int(N))

    @staticmethod
    def superpopulation(betas):
        return PopulationTarget("super", tuple(betas))


def _sample_quantile_family(data, transforms, alpha_eff, units, mc):
    """Simultaneous 1-alpha_eff prediction intervals for sample effect
    quantiles, by which units form the sample."""
    if units == "all":
        return combine_treated_control(data, transforms, alpha_eff / 2.0, mc=mc)
    if units == "treated":
        return prediction_intervals_treated(data, transforms, alpha_eff, mc=mc)
    raise ValueError(f"unknown units {units!r}")


def population_cis(data, transforms, target, alpha, mc=DEFAULT_MC, split_gamma=0.5,
                   units="all"):
    """Simultaneous 1-alpha confidence intervals for population effect
    quantiles, indexed by beta.

    units "all" uses the whole experimental sample (size n); "treated"
    uses the treated group alone, which is itself a simple random sample
    from the population under complete randomization.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not 0.0 < split_gamma < 1.0:
        raise ValueError("split_gamma must be in (0, 1)")
    if units == "control":
        # the control group is also a simple random sample; analyze it as
        # the treated group of the label-switched experiment
        from .model import switch_labels_negate
        return population_cis(switch_labels_negate(data), transforms, target,
                              alpha, mc, split_gamma, units="treated")

    m = data.n if units == "all" else data.n_t
    betas = target.betas
    if target.kind == "finite":
        N = target.N
        if N < data.n:
            raise ValueError(f"finite population size {N} smaller than sample {data.n}")
        ks = [math.ceil(N * b) for b in betas]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("quantile levels collide at this population size")
        spec = choose_kprime_multi(N, m, ks, alpha, split_gamma, mc, kind="finite")
        label = f"population-quantiles(N={N})"
    else:
        spec = choose_kprime_multi(0, m, None, alpha, split_gamma, mc,
                                   kind="multinomial", betas=betas)
        label = "population-quantiles(superpopulation)"

    alpha_eff = alpha - spec.correction
    if alpha_eff <= 0.0:
        entries = tuple((b, UNINFORMATIVE) for b in betas)
        return IntervalFamily(entries, 1.0 - alpha, True, label,
                              ("correction consumed the error budget",))

    fam = _sample_quantile_family(data, transforms, alpha_eff, units, mc)
    entries = []
    for b, kp in zip(betas, spec.k_primes):
        entries.append((b, fam.interval(kp) if kp >= 1 else UNINFORMATIVE))
    return IntervalFamily(tuple(entries), 1.0 - alpha, True, label, fam.warnings)


def population_band(family, grid=None):
    """Step-function extension of population quantile intervals over beta."""
    betas = [b for b, _ in family.entries]
    ivs = [iv for _, iv in family.entries]
    if grid is None:
        grid = np.linspace(0.01, 1.0, 100)
    entries = []
    j = -1
    for b in grid:
        while j + 1 < len(betas) and betas[j + 1] <= b + 1e-12:
            j += 1
        entries.append((float(b), ivs[j] if j >= 0 else UNINFORMATIVE))
    return IntervalFamily(tuple(entries), family.level, True, family.target,
                          family.warnings)
