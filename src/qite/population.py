"""Two-step inference for effect quantiles of larger populations.

Step one bounds the population quantile by a sample effect quantile, with a
hypergeometric (simple random sampling from N units) or multinomial (i.i.d.
sampling) failure probability.  Step two covers that sample quantile with
the randomization-based prediction intervals.  The error budget is split
between the steps, by default evenly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_MC, IntervalFamily, UNINFORMATIVE, quantile_index
from .cre import _budget_spent, _step_band
from .stratified import combine_treated_control, prediction_intervals_treated
from .tails import _validate_betas, choose_kprime_multi


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
        betas = tuple(_validate_betas(self.betas))
        if self.kind == "finite" and self.N < 1:
            raise ValueError("finite population needs N >= 1")
        object.__setattr__(self, "betas", betas)

    @staticmethod
    def finite(N, betas):
        return PopulationTarget("finite", tuple(betas), int(N))

    @staticmethod
    def superpopulation(betas):
        return PopulationTarget("super", tuple(betas))


def population_cis(data, transforms, target, alpha, mc=DEFAULT_MC, split_gamma=0.5,
                   units="all"):
    """Simultaneous 1-alpha confidence intervals for population effect
    quantiles, indexed by beta.

    units "all" uses the whole experimental sample (size n); "treated"
    uses the treated group alone, which is itself a simple random sample
    from the population under complete randomization, so it (like
    "control") rejects stratified data.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not 0.0 < split_gamma < 1.0:
        raise ValueError("split_gamma must be in (0, 1)")
    if units not in ("all", "treated", "control"):
        raise ValueError(f"unknown units {units!r}")
    if units in ("treated", "control") and data.n_strata > 1:
        raise ValueError(
            f"units={units!r} needs complete randomization, so that the group is a "
            f"simple random sample of the population; these data have "
            f"{data.n_strata} strata")
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
        ks = [quantile_index(b, N) for b in betas]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("quantile levels collide at this population size")
        spec = choose_kprime_multi(N, m, ks, alpha, split_gamma)
        label = f"population-quantiles(N={N})"
    else:
        spec = choose_kprime_multi(0, m, None, alpha, split_gamma,
                                   kind="multinomial", betas=betas)
        label = "population-quantiles(superpopulation)"

    alpha_eff = alpha - spec.correction
    if alpha_eff <= 0.0:
        return _budget_spent(betas, alpha, label)
    # simultaneous 1-alpha_eff prediction intervals for the sample quantiles
    if units == "all":
        fam = combine_treated_control(data, transforms, alpha_eff / 2.0, mc=mc)
    else:
        fam = prediction_intervals_treated(data, transforms, alpha_eff, mc=mc)
    entries = []
    for b, kp in zip(betas, spec.k_primes):
        entries.append((b, fam.interval(kp) if kp >= 1 else UNINFORMATIVE))
    return IntervalFamily(tuple(entries), 1.0 - alpha, True, label, fam.warnings)


def population_band(family, grid=None):
    """Step-function extension of population quantile intervals over beta."""
    if grid is None:
        grid = np.linspace(0.01, 1.0, 100)
    return _step_band(family, [float(b) for b in grid], slack=1e-12)
