"""Count-corrected inference for effect quantiles in completely randomized
experiments.

The p-values, the jump grid, test inversion and the pooled families live
in ``stratified``, which runs a completely randomized design as its
one-stratum case; ``pvalue_all`` and ``pvalue_treated`` name its two
scopes.  This module adds the count correction: a quantile hypothesis
about all units is tested at a treated-scope threshold k', plus the
hypergeometric probability that the assignment put more than n_t - k' of
the top effects on treatment.  That probability assumes complete
randomization, so the corrected procedures reject stratified data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    DEFAULT_MC, IntervalFamily, OneSidedInterval, QuantileHypothesis, UNINFORMATIVE,
    switch_labels_negate,
)
from .engine import null_for
from .stratified import PValueResult, _check_threshold, _invert, _stack, jump_grid, pvalue
from .worst_case import min_stat_scre_profile
from .tails import choose_kprime_multi, choose_kprime_single, hypergeom_sf

DEFAULT_GAMMA = 0.5

stratified_jump_grid = jump_grid


def _require_complete(data):
    if data.n_strata > 1:
        raise ValueError(
            "the count correction assumes complete randomization; these data have "
            f"{data.n_strata} strata")


def pvalue_all(data, transform, k, c, dist=None, mc=DEFAULT_MC, tie_shift=0):
    """Worst-case randomization p-value for: at most n-k effects exceed c."""
    return pvalue(data, transform, k, c, dist, mc, "all", tie_shift)


def pvalue_treated(data, transform, k, c, dist=None, mc=DEFAULT_MC, tie_shift=0):
    """P-value for: at most n_t-k treated effects exceed c."""
    return pvalue(data, transform, k, c, dist, mc, "treated", tie_shift)


def corrected_pvalue(data, transform, k, c, k_prime, dist=None, mc=DEFAULT_MC, tie_shift=0):
    """Treated-scope p-value at threshold k' plus the probability that more
    than n_t - k' of the top n-k effects were assigned to treatment,
    truncated at 1."""
    _require_complete(data)
    n, n_t = data.n, data.n_t
    if not 0 <= k_prime <= n_t:
        raise ValueError(f"k' must be in [0, {n_t}]")
    base = pvalue(data, transform, k_prime, c, dist, mc, "treated", tie_shift)
    corr = hypergeom_sf(n, n - k, n_t, n_t - k_prime)
    return PValueResult(
        min(1.0, base.value + corr), QuantileHypothesis(k, c, "all"), "corrected",
        base.statistic_min, base.null_provenance, correction=corr, k_prime=k_prime,
    )


# ---------------------------------------------------------------------------
# Count-corrected confidence intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleCi:
    interval: OneSidedInterval
    k: int
    k_prime: int
    correction: float
    alpha_effective: float
    warning: str | None = None


def ci_single(data, transform, k, alpha, gamma=DEFAULT_GAMMA, dist=None, mc=DEFAULT_MC):
    """1-alpha confidence interval for the k-th smallest effect among all
    units, spending at most gamma*alpha on the count correction.

    ``data`` is one ``ExperimentData``, or a list of data sets of one shape
    inverted in one bisection: then a list of results.
    """
    stack, one = _stack(data)
    _require_complete(stack[0])
    n, n_t = stack[0].n, stack[0].n_t
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    k_prime = choose_kprime_single(n, n_t, k, alpha, gamma)
    corr = hypergeom_sf(n, n - k, n_t, n_t - k_prime)
    alpha_eff = alpha - corr
    if alpha_eff <= 0.0:
        found = [SingleCi(UNINFORMATIVE, k, k_prime, corr, alpha_eff,
                          warning="correction consumed the error budget")] * len(stack)
    elif k_prime <= 0:
        found = [SingleCi(UNINFORMATIVE, k, k_prime, corr, alpha_eff)] * len(stack)
    else:
        found = [SingleCi(intervals[0], k, k_prime, corr, alpha_eff) for intervals in
                 _invert([(d, (k_prime,), dist, alpha_eff) for d in stack], transform, mc)]
    return found[0] if one else found


def ci_count(data, transform, c, alpha, gamma=DEFAULT_GAMMA, dist=None, mc=DEFAULT_MC):
    """1-alpha confidence interval {lower..n} for the number of effects
    exceeding c, from scanning the corrected p-value across k.

    Returns the contiguous hull from n downward; the correction makes the
    scanned p-value only near-monotone in k, so the hull is conservative
    whenever an interior gap occurs.  Every k is tested at the same c, so
    one profile serves the whole scan: ``corrected_pvalue`` at k reads
    entry n_t - k'.
    """
    _require_complete(data)
    _check_threshold(c)
    n, n_t = data.n, data.n_t
    if dist is None:
        dist = null_for(data, transform, mc=mc)
    k_primes = [choose_kprime_single(n, n_t, k, alpha, gamma) for k in range(n + 1)]
    entries = min_stat_scre_profile(data, transform, c)[[n_t - kp for kp in k_primes]]
    k_max = -1
    for k, (kp, base) in enumerate(zip(k_primes, dist.survival(entries).tolist())):
        p = min(1.0, base + hypergeom_sf(n, n - k, n_t, n_t - kp))
        if p > alpha:
            k_max = k
    return (n - k_max if k_max >= 0 else 0, n)


def simultaneous_cis(data, transform, ks, alpha, gamma=DEFAULT_GAMMA, mc=DEFAULT_MC,
                     dist=None, combine_sides=False, corrections=None):
    """Simultaneous 1-alpha confidence intervals for the effect quantiles
    tau_(k_j) among all units via joint count thresholds.

    With combine_sides, both orientations run at alpha/2 and each quantile
    keeps the better (larger) lower bound, making the result invariant to
    treatment labeling.  ``data`` is one ``ExperimentData``, or a list of
    data sets of one shape: then a list of families.  The family holds the
    distinct ks in ascending order, whatever order ``ks`` lists them in.

    Each distinct k' is inverted as its own one-k family, which reads its
    -inf guard at grid[0] (a family reads a k's guard at the previous k's
    bound); every k' of every data set and of a balanced design's two
    orientations goes through one bisection.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    stack, one = _stack(data)
    _require_complete(stack[0])
    ks = sorted({int(k) for k in ks})
    if combine_sides:
        spec_t, spec_c = corrections if corrections is not None else (None, None)
        sides = [(stack, dist, spec_t),
                 ([switch_labels_negate(d) for d in stack], None, spec_c)]
        alpha_side = alpha / 2.0
    else:
        sides = [(stack, dist, corrections)]
        alpha_side = alpha

    n = stack[0].n
    specs, requests = [], []
    for side_stack, side_dist, spec in sides:
        if spec is None:
            spec = choose_kprime_multi(n, side_stack[0].n_t, ks, alpha_side, gamma)
        alpha_eff = alpha_side - spec.correction
        k_primes = sorted({kp for kp in spec.k_primes if kp > 0}) if alpha_eff > 0.0 else []
        requests += [(d, (kp,), side_dist, alpha_eff) for d in side_stack for kp in k_primes]
        specs.append((spec, alpha_eff, k_primes))
    found = iter(_invert(requests, transform, mc))

    families = []   # per orientation, per data set
    for spec, alpha_eff, k_primes in specs:
        if alpha_eff <= 0.0:
            families.append([_budget_spent(ks, alpha_side, "sample-quantiles-all")] * len(stack))
            continue
        side = []
        for _ in stack:
            by_kp = {kp: next(found)[0] for kp in k_primes}
            entries = tuple((k, by_kp.get(kp, UNINFORMATIVE)) for k, kp in zip(ks, spec.k_primes))
            side.append(IntervalFamily(entries, 1.0 - alpha_side, True, "sample-quantiles-all"))
        families.append(side)

    if combine_sides:
        families = [_better_side(alpha, fam_t, fam_c) for fam_t, fam_c in zip(*families)]
    else:
        families = families[0]
    return families[0] if one else families


def _better_side(alpha, fam_t, fam_c):
    """Each quantile's better (larger) lower bound of the two orientations."""
    entries = []
    for (k, iv_t), (_, iv_c) in zip(fam_t.entries, fam_c.entries):
        entries.append((k, max((iv_t, iv_c), key=lambda iv: (iv.lower, iv.closed))))
    return IntervalFamily(tuple(entries), 1.0 - alpha, True, "sample-quantiles-all",
                          tuple(sorted(set(fam_t.warnings) | set(fam_c.warnings))))


def _budget_spent(indices, alpha, target):
    """Whole-line family for a correction that consumed the error budget."""
    return IntervalFamily(tuple((i, UNINFORMATIVE) for i in indices), 1.0 - alpha, True,
                          target, ("correction consumed the error budget",))


def band(family, n):
    """Step-function extension of simultaneous quantile intervals to every
    k = 1..n."""
    return _step_band(family, range(1, n + 1))


def _step_band(family, points, slack=0.0):
    """Step-function extension of a family to ``points``: each point takes
    the interval of the largest index at or below it (within ``slack``),
    and points below every index take the whole line."""
    entries = []
    j = -1
    for x in points:
        while j + 1 < len(family.entries) and family.entries[j + 1][0] <= x + slack:
            j += 1
        entries.append((x, family.entries[j][1] if j >= 0 else UNINFORMATIVE))
    return IntervalFamily(tuple(entries), family.level, True, family.target,
                          family.warnings)
