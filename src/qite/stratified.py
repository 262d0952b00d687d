"""Randomization inference for effect quantiles in any randomized design,
and matched-study sensitivity analysis.

A completely randomized experiment is the one-stratum case of a stratified
one, so a single engine serves both.  P-values come from the survival
function of the rank-score null evaluated at the worst-case minimized
statistic.  Intervals invert those p-values over the threshold c: the
minimized statistic is a step function of c whose jumps lie on the
within-stratum treated-minus-control outcome gaps, so inversion is a
binary search over that grid with exact evaluation at each grid point and
at its open limits.  One bisection serves every k of a family at once,
reading a batch of profile entries per round, and every family on the
data sets of one design (one ``stratum_sizes()``).  Each family carries
its own null and alpha.  A stratified profile depends only on the data
and the threshold, not on the null, so it is memoized per data set and
threshold, and the families of a sensitivity curve's whole Gamma grid
share one bisection over one profile cache.

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

from . import worst_case
from .model import (
    DEFAULT_MC, MAX_ABS_OUTCOME, NEG_INF, DataError, ExperimentData, IntervalFamily,
    OneSidedInterval, QuantileHypothesis, UNINFORMATIVE, pool_one_sided, rng_for,
    switch_labels_negate,
)
from .engine import (
    EXACT_CAP_DEFAULT, ExactEnumerationError, NullDistribution, _convolve, _mc_null,
    _uniform_rows, discrete_null, null_for, per_stratum_transforms, survival,
)
from .worst_case import (
    _entry_indices, _shifted_treated_ranks, _treated_ranks, min_stat_scre, min_stat_scre_profile,
)

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


def _check_threshold(c):
    """Reject a nan threshold, or a finite one beyond twice
    ``MAX_ABS_OUTCOME``, where y - c could overflow."""
    if not (abs(c) <= 2 * MAX_ABS_OUTCOME or abs(c) == math.inf):   # also rejects nan
        raise ValueError(f"c must be +-inf or within +-{2 * MAX_ABS_OUTCOME:.6g}, got {c!r}")


def pvalue(data, transforms, k, c, dist=None, mc=DEFAULT_MC, scope="all", tie_shift=0):
    """Worst-case randomization p-value for: at most n-k effects exceed c
    (scope "all"), or at most n_t-k treated effects exceed c (scope
    "treated").

    The treated-scope p-value equals the all-units one at index n_c + k:
    the two composite nulls share the same worst-case configuration.  The
    threshold c must pass ``_check_threshold``.
    """
    _check_threshold(c)
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


def _stack(data):
    """One ``ExperimentData`` or a list of them as a list, and whether it
    was one.  The data sets of a stack share one design, one
    ``stratum_sizes()``, and so one null."""
    one = isinstance(data, ExperimentData)
    stack = [data] if one else list(data)
    if not stack:
        raise ValueError("no data sets given")
    if len({d.stratum_sizes() for d in stack}) > 1:
        raise ValueError("stacked data sets must share one design (stratum sizes)")
    return stack, one


class _ProfileCache:
    """Profile entries and the jump grids of a stack of data sets, read in
    batches by ``entries``; shared by all k and, in a sensitivity curve,
    by every Gamma.

    One stratum (every completely randomized design) gathers entries from
    rankings without building a profile: the ranks of every row of a batch
    at once, whichever data set the row reads.  Other designs read whole
    profiles by ``profile``, memoized per (data set, threshold, side).
    """

    def __init__(self, data, transforms):
        self.stack = _stack(data)[0]
        first = self.stack[0]
        self.transforms = per_stratum_transforms(first, transforms)
        # strata read whole profiles
        self._phi = self.transforms[0].scores(first.n) if first.n_strata == 1 else None
        self._store = {}

    @cached_property
    def grids(self):
        """The jump grid of each data set of the stack."""
        return [jump_grid(d) for d in self.stack]

    @cached_property
    def grid(self):
        """The jump grids laid end to end: one data set's own grid."""
        return np.concatenate(self.grids)

    @cached_property
    def _units(self):
        """Assignments and outcomes, a row per data set of the stack."""
        return np.stack([d.z for d in self.stack]), np.stack([d.y for d in self.stack])

    @cached_property
    def _sorted_outcomes(self):
        """Treated and control outcomes, each row ascending: read at tie_shift +-1."""
        z, y = self._units
        rows = len(self.stack)
        return (np.sort(y[z == 1].reshape(rows, -1), axis=1),
                np.sort(y[z == 0].reshape(rows, -1), axis=1))

    def profile(self, d, c, side):
        """The whole profile of data set d at threshold c and tie_shift side."""
        key = (d, float(c), side)
        if key not in self._store:
            self._store[key] = min_stat_scre_profile(self.stack[d], self.transforms, c, side)
        return self._store[key]

    def entries(self, c, m, tie_shift):
        """Entry m[b] of the profiles at threshold c[b], for every b (c and
        m broadcast), all at one tie_shift.

        The stack's profiles are laid end to end, n_t + 1 entries each:
        entry m is slot m % (n_t + 1) of data set m // (n_t + 1).  A run of
        equal (data set, threshold) rows is ranked, or its profile read,
        once per block of at most ``worst_case._COST_BLOCK`` indices, so
        callers pass each data set's rows together and thresholds in
        ascending order.  One stratum gathers and sums each entry as its row
        of ``worst_case._cost_table``, so entries are bit-identical to the
        table for any score table.
        """
        n, n_t = self.stack[0].n, self.stack[0].n_t
        c, m = (a.ravel() for a in np.broadcast_arrays(np.asarray(c, dtype=float), m))
        d, m = np.divmod(m, n_t + 1)
        out = np.empty(c.size)
        # ranking at tie_shift 0 sorts all n units of a row
        rows = max(1, worst_case._COST_BLOCK // (n if tie_shift == 0 else n_t))
        for a in range(0, c.size, rows):
            b = slice(a, a + rows)
            cb, db = c[b], d[b]
            new = np.ones(cb.size, dtype=bool)
            new[1:] = (cb[1:] != cb[:-1]) | (db[1:] != db[:-1])
            run = new.cumsum() - 1
            cb, db = cb[new], db[new]
            if self._phi is None:
                profiles = np.stack([self.profile(j, x, tie_shift)
                                     for j, x in zip(db.tolist(), cb.tolist())])
                out[b] = profiles[run, m[b]]
                continue
            if tie_shift == 0:
                z, y = self._units
                R = _treated_ranks(z[db], y[db], cb, 0)
            else:
                R = _shifted_treated_ranks(*self._sorted_outcomes, cb, db, tie_shift)
            out[b] = self._phi[_entry_indices(R[run], m[b, None])].sum(axis=1)
        return out


def _invert_treated_family(profiles, families):
    """One-sided 1-alpha lower bounds for the k-th sorted treated effects:
    the intervals of ``_invert_each_k``, from one bisection over the jump
    grids for every k of every family in rounds of array operations.

    ``families`` lists independent families, each a tuple (data-set index
    into ``profiles.stack``, ascending ks, null, alpha); the intervals of
    each are returned, in order.  Every family reads its p-values from its
    own null and compares them with its own alpha, so families under
    several nulls share a data set: every Gamma of a sensitivity curve.

    Each round probes the midpoint of every open k at tie_shift -1: entry
    n_t - k of the profile there, by one ``profiles.entries`` call for
    every family, and one survival call per distinct null.  The first grid
    index whose p-value exceeds alpha is nondecreasing in k, so each round
    tightens the bounds across the ks of a family: a running maximum of
    ``lo``, a reverse running minimum of ``hi``.  Family f searches its own
    index range, above every index of the families before it, so one
    accumulate serves every family and none crosses into the next.  The
    -inf guard (tie_shift +1) and the closedness (tie_shift 0) are read
    where the per-k loop reads them: the guard at grid[0] for the first k
    of a family and after a -inf bound, else at the previous k's index.  So
    a one-k family reads its guard at grid[0], as a call for that k alone
    does.

    Why the intervals are bit-identical.  Scores are nondecreasing
    (``RankTransform`` enforces it) and survival functions nonincreasing,
    so at a fixed tie_shift the p-value does not decrease as c rises, nor
    increase with k, even in floating point.  One stratum: each fl(y - c),
    rank and gathered score falls weakly as c rises, a fixed-order sum of
    smaller terms is no larger, and the score indices of entry m are
    elementwise at least those of entry m + 1.  Strata: every cost-table
    entry falls weakly in c, float + and min are monotone, so each
    ``_allocation_dp`` stage does too, and the last is nonincreasing in the
    slot count.  One treated unit per stratum: ``_profile_one_treated``'s
    f0.sum() - cumsum(savings) is nonincreasing in the slot count (savings
    are nonnegative), but in c it is a difference of two falling terms,
    monotone only while both are exact: for integer-valued scores.  Other
    score tables are outside the argument; randomized searches have found
    no family they change.  So each warm-started search of the loop returns
    the first index at which its predicate holds (or the last grid index),
    which this search finds from 0.  Float ties break monotonicity only
    between tie_shifts, and each tie_shift is read here exactly where the
    loop reads it.
    """
    sets, fam_ks, dists, alphas = zip(*families)
    sets = np.array(sets, dtype=np.intp)
    fam_ks = [np.fromiter(k, dtype=np.intp) for k in fam_ks]
    counts = np.array([k.size for k in fam_ks], dtype=np.intp)
    grid = profiles.grid
    if grid.size == 0 or not counts.any():
        return [[UNINFORMATIVE] * k.size for k in fam_ks]

    sizes = np.array([g.size for g in profiles.grids], dtype=np.intp)
    fam = np.repeat(np.arange(len(families)), counts)   # the family of each row
    span = sizes[sets]
    base = np.cumsum(span) - span                       # family f's first index
    # grid index of family row j's search index i: i + shift[j]
    shift = ((np.cumsum(sizes) - sizes)[sets] - base)[fam]
    n_t = profiles.stack[0].n_t
    slots = sets[fam] * (n_t + 1) + n_t - np.concatenate(fam_ks)
    rows = np.arange(slots.size)
    alphas = np.array(alphas, dtype=float)[fam]
    index = {}   # each distinct null's position, in order of first use
    null_of = np.array([index.setdefault(id(d), len(index)) for d in dists])[fam]
    nulls = list({id(d): d for d in dists}.values())

    def above(i, j, tie_shift):
        p = profiles.entries(grid[i + shift[j]], slots[j], tie_shift)
        for g, dist in enumerate(nulls):
            own = null_of[j] == g
            p[own] = dist.survival(p[own])
        return p > alphas[j]

    lo = base[fam]
    at_first = above(lo, rows, +1)
    # a guard that holds at grid[0] holds at every index: bisect the other ks
    hi = np.where(at_first, lo, lo + span[fam] - 1)
    while (todo := np.flatnonzero(lo < hi)).size:
        mid = (lo[todo] + hi[todo]) // 2
        hit = above(mid, todo, -1)
        hi[todo[hit]] = mid[hit]
        lo[todo[~hit]] = mid[~hit] + 1
        np.maximum.accumulate(lo, out=lo)
        hi = np.minimum.accumulate(hi[::-1])[::-1]

    # after a bounded k the loop reads the next guard at that k's index
    later = np.ones(rows.size, dtype=bool)
    later[(np.cumsum(counts) - counts)[counts > 0]] = False
    later = np.flatnonzero(later)
    bounded = ~at_first
    if later.size:
        guards = above(lo[later - 1], later, +1).tolist()
        for j, guard in zip(later.tolist(), guards):
            if bounded[j - 1]:
                bounded[j] = not guard
    closed = iter(above(lo[bounded], rows[bounded], 0).tolist())
    lower = grid[lo + shift].tolist()
    intervals = [OneSidedInterval(x, next(closed)) if b else UNINFORMATIVE
                 for x, b in zip(lower, bounded.tolist())]
    ends = np.cumsum(counts).tolist()
    return [intervals[e - k:e] for e, k in zip(ends, counts.tolist())]


def _invert_each_k(profiles, dist, alpha, ks):
    """``_invert_treated_family`` by one ``invert_lower_bound`` per k: the
    testing oracle for the batched bisection.  It reads whole profiles,
    ranked by ``_treated_ranks``, not ``profiles.entries``.

    Bounds are nondecreasing in k, so each search starts at the grid point
    where the previous one ended, unless that bound was -inf.
    """
    intervals = []
    lo = 0
    for k in ks:
        def pfun(c, side, slots=profiles.stack[0].n_t - k):
            return survival(dist, float(profiles.profile(0, c, side)[slots]))

        interval, lo = invert_lower_bound(pfun, profiles.grid, alpha, lo_start=lo)
        if not interval.informative:
            lo = 0   # -inf bound: later ks may still start anywhere
        intervals.append(interval)
    return intervals


def _invert(requests, transforms, mc=DEFAULT_MC):
    """The treated-unit intervals of each request (data set, ascending ks,
    null or None, alpha): one interval per k.

    Requests are grouped by their design alone: the data sets of one
    ``stratum_sizes()`` share one ``_ProfileCache`` and one bisection, such
    as every Gamma of a sensitivity curve or a balanced design's two
    orientations.  A None null is the data set's own, from ``null_for``,
    which is the same for every data set of a group.
    """
    groups = {}
    for i, (d, *_) in enumerate(requests):
        groups.setdefault(d.stratum_sizes(), []).append(i)
    out = [None] * len(requests)
    for members in groups.values():
        stack, sets, families, own = [], {}, [], None
        for i in members:
            d, ks, dist, alpha = requests[i]
            if id(d) not in sets:
                sets[id(d)] = len(stack)
                stack.append(d)
            if dist is None:
                dist = own = own or null_for(d, transforms, mc=mc)
            families.append((sets[id(d)], ks, dist, alpha))
        found = _invert_treated_family(_ProfileCache(stack, transforms), families)
        for i, intervals in zip(members, found):
            out[i] = intervals
    return out


def prediction_intervals_treated(data, transforms, alpha, dist=None, mc=DEFAULT_MC):
    """Simultaneous 1-alpha one-sided prediction intervals for the sorted
    effects among treated units, k = 1..n_t.  Nested: bounds nondecreasing
    in k.

    ``data`` is one ``ExperimentData``, or a list of data sets of one
    design, inverted in one bisection: then a list of families.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    stack, one = _stack(data)
    ks = range(1, stack[0].n_t + 1)
    families = [IntervalFamily(tuple(zip(ks, intervals)), 1.0 - alpha, True,
                               "sample-quantiles-treated")
                for intervals in _invert([(d, ks, dist, alpha) for d in stack], transforms, mc)]
    return families[0] if one else families


def intervals_from_treated_only(data, transforms, alpha, dist=None, mc=DEFAULT_MC):
    """Simultaneous intervals for all-unit effect quantiles built from one
    orientation only: tau_(n_c + k) is bounded by the k-th treated-effect
    interval, and quantiles at or below n_c get the whole real line.

    Takes one data set or a list, as ``prediction_intervals_treated``.
    """
    stack, one = _stack(data)
    n_c = stack[0].n_c
    families = []
    for fam_t in prediction_intervals_treated(stack, transforms, alpha, dist, mc):
        entries = [(k, UNINFORMATIVE) for k in range(1, n_c + 1)]
        entries += [(n_c + k, iv) for k, iv in fam_t.entries]
        families.append(IntervalFamily(tuple(entries), 1.0 - alpha, True,
                                       "sample-quantiles-all"))
    return families[0] if one else families


def combine_treated_control(data, transforms, alpha, dist=None, mc=DEFAULT_MC):
    """Pooled simultaneous confidence intervals for all-unit effect
    quantiles at level 1-2*alpha.

    Runs the treated-effect prediction intervals on the original data and
    on the label-switched, sign-flipped data (whose individual effects are
    identical), pools the n one-sided intervals by inclusion, and assigns
    the k-th largest lower bound to the k-th sorted effect.  Takes one data
    set or a list, as ``prediction_intervals_treated``; a balanced design's
    two orientations share one bisection.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 0.5): each orientation runs at alpha, "
                         "so the pooled level is 1 - 2*alpha")
    stack, one = _stack(data)
    switched = [switch_labels_negate(d) for d in stack]
    found = _invert([(d, range(1, d.n_t + 1), dist, alpha) for d in stack]
                    + [(d, range(1, d.n_t + 1), None, alpha) for d in switched], transforms, mc)
    pooled = [pool_one_sided(iv_t + iv_c, "sample-quantiles-all", 1.0 - 2.0 * alpha)
              for iv_t, iv_c in zip(found[:len(stack)], found[len(stack):])]
    return pooled[0] if one else pooled


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
    if not 1.0 <= gamma < math.inf:   # also rejects nan
        raise ValueError(f"Gamma must be finite and >= 1, got {gamma_bound!r}")
    transforms = per_stratum_transforms(data, transforms)
    design = ("sensitivity", gamma, data.stratum_sizes())

    if mode == "pairs":
        _require_matched(data, pairs_only=True)
        p_hi = gamma / (1.0 + gamma)
        # one two-atom part per distinct transform, shared by its pairs
        probs = np.array([1.0 - p_hi, p_hi])
        slot = {tr: i for i, tr in enumerate(dict.fromkeys(transforms))}
        two = [(tr.scores(2), probs) for tr in slot]
        try:
            vals, wts = _convolve(two, [slot[tr] for tr in transforms], cap)
            return discrete_null(vals, wts, provenance=("exact", "worst-case", gamma),
                                 design=design)
        except ExactEnumerationError:
            rng = rng_for(mc.seed, _TAG_SENS, data.n_strata)
            low = np.array([two[slot[tr]][0][0] for tr in transforms])
            high = np.array([two[slot[tr]][0][1] for tr in transforms])

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
                          mc=DEFAULT_MC):
    """Simultaneous 1-alpha prediction intervals for sorted effects among
    treated units under the Gamma sensitivity model: the one-Gamma
    ``sensitivity_curve``."""
    return sensitivity_curve(data, transforms, alpha, [gamma_bound], mode, mc).families[0]


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
    Gamma whose interval still excludes zero.  The grid is kept as its
    sorted distinct Gammas.  Every Gamma's family is inverted in one
    bisection over the data's one profile cache."""
    gammas = tuple(sorted({float(g) for g in gammas}))
    if not gammas:
        raise ValueError("the Gamma grid is empty")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    ks = range(1, data.n_t + 1)
    found = _invert([(data, ks, worst_case_tail(data, transforms, g, mode, mc), alpha)
                     for g in gammas], transforms, mc)
    families = tuple(IntervalFamily(tuple(zip(ks, intervals)), 1.0 - alpha, True,
                                    f"sample-quantiles-treated(gamma={g})")
                     for g, intervals in zip(gammas, found))
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
