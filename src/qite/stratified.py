"""Stratified-experiment inference and matched-study sensitivity analysis.

Stratified p-values reuse the worst-case machinery with the slot-allocation
DP; one DP sweep at a threshold c yields the minimized statistic for every
k at once, so interval construction memoizes per-threshold profiles.  A
profile depends only on the data and the threshold, not on the null, so a
sensitivity curve shares one profile cache across its whole Gamma grid.

Sensitivity analysis bounds the null survival function over all confounder
configurations when within-set treatment odds differ by at most Gamma.
For matched pairs the worst case puts the larger score on treatment with
probability Gamma/(1+Gamma) independently across pairs (exact, computed by
convolution or seeded Monte Carlo); for general sets a Gaussian
approximation maximizes the per-set mean over binary confounder splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_MC, IntervalFamily, QuantileHypothesis, pool_one_sided, rng_for,
    switch_labels_negate,
)
from .engine import (
    EXACT_CAP_DEFAULT, ExactEnumerationError, NullDistribution, _mc_null,
    convolve_discrete, discrete_null, null_for, per_stratum_transforms, survival,
)
from .cre import PValueResult, invert_lower_bound, stratified_jump_grid
from .worst_case import min_stat_scre_profile

_TAG_SENS = 31


@dataclass(frozen=True)
class SensitivityModel:
    """Within-set treatment-odds bound Gamma >= 1, one treated per set."""

    gamma_bound: float

    def __post_init__(self):
        if self.gamma_bound < 1.0:
            raise ValueError("Gamma must be >= 1")

    @staticmethod
    def from_log(log_gamma):
        return SensitivityModel(math.exp(log_gamma))


def _require_strata(data):
    if data.strata is None:
        raise ValueError("stratified inference needs stratum labels")


def _require_matched(data, pairs_only=False):
    _require_strata(data)
    for n_s, n_st in data.stratum_sizes():
        if n_s < 2:
            raise ValueError("matched sets of size 1 carry no randomness")
        if n_st != 1:
            raise ValueError("sensitivity analysis requires exactly one treated unit per set")
        if pairs_only and n_s != 2:
            raise ValueError("pairs mode requires every matched set to have size 2")


def pvalue_scre(data, transforms, k, c, dist=None, mc=DEFAULT_MC, scope="all", tie_shift=0):
    """Stratified worst-case p-value; scope "treated" addresses the sorted
    effects among treated units and equals the all-units p-value at
    n_c + k."""
    _require_strata(data)
    if scope == "treated":
        if not 0 <= k <= data.n_t:
            raise ValueError(f"k must be in [0, {data.n_t}]")
        k_all = data.n_c + k
    elif scope == "all":
        if not 0 <= k <= data.n:
            raise ValueError(f"k must be in [0, {data.n}]")
        k_all = k
    else:
        raise ValueError(f"unknown scope {scope!r}")
    if dist is None:
        dist = null_for(data, transforms, mc=mc)
    profile = min_stat_scre_profile(data, transforms, c, tie_shift)
    t_min = float(profile[min(data.n - k_all, data.n_t)])
    return PValueResult(
        survival(dist, t_min), QuantileHypothesis(k, c, scope), "stratified",
        t_min, dist.provenance,
    )


class _ProfileCache:
    """Memoized DP profiles per (threshold, side); shared by all k and, in a
    sensitivity curve, by every Gamma."""

    def __init__(self, data, transforms):
        self.data = data
        self.transforms = per_stratum_transforms(data, transforms)
        self._store = {}

    def __call__(self, c, side):
        key = (float(c), side)
        out = self._store.get(key)
        if out is None:
            out = min_stat_scre_profile(self.data, self.transforms, c, side)
            self._store[key] = out
        return out


def _treated_scope_pfun(profiles, dist, n_t, k):
    idx = n_t - k

    def pfun(c, side):
        return survival(dist, float(profiles(c, side)[idx]))

    return pfun


def _invert_treated_family(data, profiles, dist, alpha, target):
    """Simultaneous 1-alpha intervals for the sorted treated effects,
    k = 1..n_t, by inverting the profile p-values over the jump grid."""
    grid = stratified_jump_grid(data)
    entries = []
    lo = 0
    for k in range(1, data.n_t + 1):
        pfun = _treated_scope_pfun(profiles, dist, data.n_t, k)
        interval, lo = invert_lower_bound(pfun, grid, alpha, lo_start=lo)
        if not interval.informative:
            lo = 0
        entries.append((k, interval))
    return IntervalFamily(tuple(entries), 1.0 - alpha, True, target)


def intervals_scre(data, transforms, alpha, dist=None, mc=DEFAULT_MC):
    """Simultaneous 1-alpha prediction intervals for sorted effects among
    treated units under stratified randomization, k = 1..n_t."""
    _require_strata(data)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if dist is None:
        dist = null_for(data, transforms, mc=mc)
    return _invert_treated_family(data, _ProfileCache(data, transforms), dist, alpha,
                                  "sample-quantiles-treated")


def combine_scre(data, transforms, alpha, mc=DEFAULT_MC):
    """Pooled 1-2*alpha confidence intervals for all-unit effect quantiles
    in a stratified experiment (both orientations at alpha each)."""
    fam_t = intervals_scre(data, transforms, alpha, mc=mc)
    fam_c = intervals_scre(switch_labels_negate(data), transforms, alpha, mc=mc)
    intervals = [iv for _, iv in fam_t.entries] + [iv for _, iv in fam_c.entries]
    return pool_one_sided(intervals, "sample-quantiles-all", 1.0 - 2.0 * alpha)


# ---------------------------------------------------------------------------
# Worst-case nulls under bounded confounding
# ---------------------------------------------------------------------------

def worst_case_tail(data, transforms, gamma_bound, mode="pairs", mc=DEFAULT_MC,
                    cap=EXACT_CAP_DEFAULT):
    """Upper envelope of the null survival function over all confounder
    configurations with within-set odds bounded by Gamma.

    mode "pairs" (all sets of size 2) convolves the exact per-pair two-point
    distributions when the support stays within the cap, otherwise falls
    back to seeded Monte Carlo.  mode "gaussian" returns the asymptotic
    Gaussian envelope for general one-treated sets; results carry an
    "asymptotic" provenance marker.
    """
    gamma = float(gamma_bound)
    if gamma < 1.0:
        raise ValueError("Gamma must be >= 1")
    transforms = per_stratum_transforms(data, transforms)
    design = ("sensitivity", gamma, data.stratum_sizes())

    if mode == "pairs":
        _require_matched(data, pairs_only=True)
        p_hi = gamma / (1.0 + gamma)
        atoms = []
        for (n_s, _), tr in zip(data.stratum_sizes(), transforms):
            q = tr.scores(2)
            atoms.append((q, np.array([1.0 - p_hi, p_hi])))
        try:
            vals, wts = convolve_discrete(atoms, cap)
            return discrete_null(vals, wts, provenance=("exact", "worst-case", gamma),
                                 design=design)
        except ExactEnumerationError:
            rng = rng_for(mc.seed, _TAG_SENS, data.n_strata)
            low = np.array([tr.scores(2)[0] for tr in transforms])
            high = np.array([tr.scores(2)[1] for tr in transforms])
            take_high = rng.random((mc.draws, len(transforms))) < p_hi
            draws = np.where(take_high, high[None, :], low[None, :]).sum(axis=1)
            return _mc_null(draws, ("mc", mc.draws, mc.seed, "worst-case", gamma),
                            design)

    if mode == "gaussian":
        _require_matched(data)
        mean = 0.0
        var = 0.0
        for (n_s, _), tr in zip(data.stratum_sizes(), transforms):
            q = tr.scores(n_s)
            best = None
            for b in range(1, n_s):
                denom = (n_s - b) + gamma * b
                p = np.full(n_s, 1.0 / denom)
                p[n_s - b:] = gamma / denom
                mu = float(p @ q)
                sig2 = float(p @ (q * q)) - mu * mu
                if best is None or (mu, sig2) > best[:2]:
                    best = (mu, sig2)
            mean += best[0]
            var += best[1]
        return NullDistribution("gaussian", ("asymptotic", "worst-case", gamma),
                                design, mean=mean, sd=math.sqrt(max(var, 0.0)))

    raise ValueError(f"unknown mode {mode!r}")


def pvalue_sensitivity(data, transforms, k, c, gamma_bound, mode="pairs",
                       mc=DEFAULT_MC, dist=None, scope="treated", tie_shift=0):
    """Valid p-value for the treated-effects hypothesis under confounding
    bounded by Gamma; nondecreasing in Gamma at fixed (k, c)."""
    if dist is None:
        dist = worst_case_tail(data, transforms, gamma_bound, mode, mc)
    base = pvalue_scre(data, transforms, k, c, dist, mc, scope, tie_shift)
    return PValueResult(
        base.value, base.hypothesis, f"sensitivity(gamma={float(gamma_bound)})",
        base.statistic_min, dist.provenance,
    )


def sensitivity_intervals(data, transforms, alpha, gamma_bound, mode="pairs",
                          mc=DEFAULT_MC, profiles=None):
    """Simultaneous 1-alpha prediction intervals for sorted effects among
    treated units under the Gamma sensitivity model.

    ``profiles`` is an optional ``_ProfileCache`` for the same data and
    transforms, shared by calls that differ only in Gamma.
    """
    _require_matched(data, pairs_only=(mode == "pairs"))
    dist = worst_case_tail(data, transforms, gamma_bound, mode, mc)
    if profiles is None:
        profiles = _ProfileCache(data, transforms)
    return _invert_treated_family(data, profiles, dist, alpha,
                                  f"sample-quantiles-treated(gamma={float(gamma_bound)})")


@dataclass(frozen=True)
class SensitivityCurve:
    gammas: tuple
    families: tuple                 # one IntervalFamily per gamma
    zero_exclusion: tuple           # (k, largest gamma excluding zero) pairs

    def family(self, gamma):
        for g, fam in zip(self.gammas, self.families):
            if g == gamma:
                return fam
        raise KeyError(gamma)


def sensitivity_curve(data, transforms, alpha, gammas, mode="pairs", mc=DEFAULT_MC):
    """Interval families across a Gamma grid plus, per quantile, the largest
    Gamma whose interval still excludes zero."""
    gammas = tuple(sorted(float(g) for g in gammas))
    profiles = _ProfileCache(data, transforms)
    families = tuple(
        sensitivity_intervals(data, transforms, alpha, g, mode, mc, profiles)
        for g in gammas
    )
    thresholds = []
    for k in range(1, data.n_t + 1):
        best = None
        for g, fam in zip(gammas, families):
            if fam.interval(k).excludes_zero():
                best = g
        thresholds.append((k, best))
    return SensitivityCurve(gammas, families, tuple(thresholds))
