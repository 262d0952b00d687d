"""Randomization inference for effect quantiles in any randomized design,
and matched-study sensitivity analysis.

A completely randomized experiment is the one-stratum case of a stratified
one, so a single engine serves both.  P-values come from the survival
function of the rank-score null evaluated at the worst-case minimized
statistic.  Intervals invert those p-values over the threshold c: the
minimized statistic is a step function of c whose jumps lie on the
within-stratum treated-minus-control outcome gaps, so inversion is a
binary search over that grid with exact evaluation at each grid point and
at its open limits.  One profile at a threshold gives the minimized
statistic for every k at once, so an inversion memoizes profiles per
threshold.  A profile depends only on the data and the threshold, not on
the null, so a sensitivity curve shares one profile cache across its
whole Gamma grid.

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
from functools import cached_property

import numpy as np

from .model import (
    DEFAULT_MC, NEG_INF, DataError, IntervalFamily, OneSidedInterval,
    QuantileHypothesis, UNINFORMATIVE, pool_one_sided, rng_for, switch_labels_negate,
)
from .engine import (
    EXACT_CAP_DEFAULT, ExactEnumerationError, NullDistribution, _mc_null, _uniform_rows,
    convolve_discrete, discrete_null, null_for, per_stratum_transforms, survival,
)
from .worst_case import min_stat_scre, min_stat_scre_profile

_TAG_SENS = 31


@dataclass(frozen=True)
class PValueResult:
    value: float
    hypothesis: QuantileHypothesis
    method: str
    statistic_min: float
    null_provenance: tuple
    correction: float = 0.0
    k_prime: int | None = None


def _require_matched(data, pairs_only=False):
    for n_s, n_st in data.stratum_sizes():
        if n_s < 2:
            raise DataError("matched sets of size 1 carry no randomness")
        if n_st != 1:
            raise DataError("sensitivity analysis requires exactly one treated unit per set")
        if pairs_only and n_s != 2:
            raise DataError("pairs mode requires every matched set to have size 2")


def pvalue(data, transforms, k, c, dist=None, mc=DEFAULT_MC, scope="all", tie_shift=0):
    """Worst-case randomization p-value for: at most n-k effects exceed c
    (scope "all"), or at most n_t-k treated effects exceed c (scope
    "treated").

    The treated-scope p-value equals the all-units one at index n_c + k:
    the two composite nulls share the same worst-case configuration.
    """
    if scope == "treated":
        if not 0 <= k <= data.n_t:
            raise ValueError(f"k must be in [0, {data.n_t}]")
        k_all = data.n_c + k
    elif scope == "all":
        k_all = k
    else:
        raise ValueError(f"unknown scope {scope!r}")
    t_min = min_stat_scre(data, transforms, k_all, c, tie_shift)
    if dist is None:
        dist = null_for(data, transforms, mc=mc)
    if data.strata is not None:
        method = "stratified"
    else:
        method = "original" if scope == "all" else "treated"
    return PValueResult(
        survival(dist, t_min), QuantileHypothesis(k, c, scope), method,
        t_min, dist.provenance,
    )


pvalue_scre = pvalue


# ---------------------------------------------------------------------------
# Test inversion
# ---------------------------------------------------------------------------

def jump_grid(data):
    """Sorted candidate thresholds: the union over strata of within-stratum
    treated-minus-control outcome gaps (every gap, for one stratum)."""
    pieces = []
    for idx in data.stratum_members():
        z, y = data.z[idx], data.y[idx]
        pieces.append((y[z == 1][:, None] - y[z == 0][None, :]).ravel())
    return np.unique(np.concatenate(pieces))


def invert_lower_bound(pfun, grid, alpha, lo_start=0):
    """Lower endpoint of {c : pfun(c) > alpha} for a p-value nondecreasing
    and piecewise constant in c with jumps only on ``grid``.

    pfun(c, side) with side +1/0/-1 evaluates just below / at / just above
    c.  Returns (interval, index of the grid point found).
    """
    M = len(grid)
    if M == 0 or pfun(grid[lo_start], +1) > alpha:
        return OneSidedInterval(NEG_INF, False), lo_start
    lo, hi = lo_start, M - 1
    # smallest grid point whose upper open limit exceeds alpha; the region
    # above the last grid point always has p = 1 > alpha
    while lo < hi:
        mid = (lo + hi) // 2
        if pfun(grid[mid], -1) > alpha:
            hi = mid
        else:
            lo = mid + 1
    closed = pfun(grid[lo], 0) > alpha
    return OneSidedInterval(float(grid[lo]), closed), lo


class _ProfileCache:
    """Memoized profiles per (threshold, side), plus the jump grid, for one
    data set; shared by all k and, in a sensitivity curve, by every Gamma."""

    def __init__(self, data, transforms):
        self.data = data
        self.transforms = per_stratum_transforms(data, transforms)
        self._store = {}

    @cached_property
    def grid(self):
        return jump_grid(self.data)

    def __call__(self, c, side):
        key = (float(c), side)
        out = self._store.get(key)
        if out is None:
            out = min_stat_scre_profile(self.data, self.transforms, c, side)
            self._store[key] = out
        return out


def _invert_treated_family(profiles, dist, alpha, ks):
    """One-sided 1-alpha lower bounds for the k-th sorted treated effects,
    for ascending ks, by inverting the profile p-values over the jump grid.

    Bounds are nondecreasing in k, so each search starts at the grid point
    where the previous one ended, unless that bound was -inf.
    """
    intervals = []
    lo = 0
    for k in ks:
        def pfun(c, side, slots=profiles.data.n_t - k):
            return survival(dist, float(profiles(c, side)[slots]))

        interval, lo = invert_lower_bound(pfun, profiles.grid, alpha, lo_start=lo)
        if not interval.informative:
            lo = 0   # -inf bound: later ks may still start anywhere
        intervals.append(interval)
    return intervals


def prediction_intervals_treated(data, transforms, alpha, dist=None, mc=DEFAULT_MC):
    """Simultaneous 1-alpha one-sided prediction intervals for the sorted
    effects among treated units, k = 1..n_t.  Nested: bounds nondecreasing
    in k."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if dist is None:
        dist = null_for(data, transforms, mc=mc)
    ks = range(1, data.n_t + 1)
    intervals = _invert_treated_family(_ProfileCache(data, transforms), dist, alpha, ks)
    return IntervalFamily(tuple(zip(ks, intervals)), 1.0 - alpha, True,
                          "sample-quantiles-treated")


intervals_scre = prediction_intervals_treated


def intervals_from_treated_only(data, transforms, alpha, dist=None, mc=DEFAULT_MC):
    """Simultaneous intervals for all-unit effect quantiles built from one
    orientation only: tau_(n_c + k) is bounded by the k-th treated-effect
    interval, and quantiles at or below n_c get the whole real line."""
    fam_t = prediction_intervals_treated(data, transforms, alpha, dist, mc)
    entries = [(k, UNINFORMATIVE) for k in range(1, data.n_c + 1)]
    entries += [(data.n_c + k, iv) for k, iv in fam_t.entries]
    return IntervalFamily(tuple(entries), 1.0 - alpha, True, "sample-quantiles-all")


def combine_treated_control(data, transforms, alpha, dist=None, mc=DEFAULT_MC):
    """Pooled simultaneous confidence intervals for all-unit effect
    quantiles at level 1-2*alpha.

    Runs the treated-effect prediction intervals on the original data and
    on the label-switched, sign-flipped data (whose individual effects are
    identical), pools the n one-sided intervals by inclusion, and assigns
    the k-th largest lower bound to the k-th sorted effect.
    """
    fam_t = prediction_intervals_treated(data, transforms, alpha, dist, mc)
    switched = switch_labels_negate(data)
    fam_c = prediction_intervals_treated(switched, transforms, alpha, None, mc)
    intervals = [iv for _, iv in fam_t.entries] + [iv for _, iv in fam_c.entries]
    return pool_one_sided(intervals, "sample-quantiles-all", 1.0 - 2.0 * alpha)


combine_scre = combine_treated_control


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

            def totals(u, take_high, scores):
                # each pair's high score with probability p_hi, summed per row
                np.less(u, p_hi, out=take_high)
                np.copyto(scores, low)
                np.copyto(scores, high, where=take_high)
                return scores.sum(axis=1)

            draws = _uniform_rows(rng, mc.draws, len(transforms), totals, (bool, float))
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
    base = pvalue(data, transforms, k, c, dist, mc, scope, tie_shift)
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
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    _require_matched(data, pairs_only=(mode == "pairs"))
    dist = worst_case_tail(data, transforms, gamma_bound, mode, mc)
    if profiles is None:
        profiles = _ProfileCache(data, transforms)
    ks = range(1, data.n_t + 1)
    intervals = _invert_treated_family(profiles, dist, alpha, ks)
    return IntervalFamily(tuple(zip(ks, intervals)), 1.0 - alpha, True,
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
    # each family's intervals by target index, read once
    by_k = [dict(fam.entries) for fam in families]
    thresholds = []
    for k in range(1, data.n_t + 1):
        best = None
        for g, intervals in zip(gammas, by_k):
            if intervals[k].excludes_zero():
                best = g
        thresholds.append((k, best))
    return SensitivityCurve(gammas, families, tuple(thresholds))
