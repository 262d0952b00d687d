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
from .stratified import PValueResult, _ProfileCache, _invert_treated_family, jump_grid, pvalue
from .tails import choose_kprime_multi, choose_kprime_single, hypergeom_sf

DEFAULT_GAMMA = 0.5

stratified_jump_grid = jump_grid


def _resolve_null(data, transform, dist, mc):
    return dist if dist is not None else null_for(data, transform, mc=mc)


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


def _invert_treated_at(profiles, k_prime, alpha_eff, dist):
    if k_prime <= 0:
        return UNINFORMATIVE
    return _invert_treated_family(profiles, dist, alpha_eff, (k_prime,))[0]


def ci_single(data, transform, k, alpha, gamma=DEFAULT_GAMMA, dist=None, mc=DEFAULT_MC):
    """1-alpha confidence interval for the k-th smallest effect among all
    units, spending at most gamma*alpha on the count correction."""
    _require_complete(data)
    n, n_t = data.n, data.n_t
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    k_prime = choose_kprime_single(n, n_t, k, alpha, gamma)
    corr = hypergeom_sf(n, n - k, n_t, n_t - k_prime)
    alpha_eff = alpha - corr
    if alpha_eff <= 0.0:
        return SingleCi(UNINFORMATIVE, k, k_prime, corr, alpha_eff,
                        warning="correction consumed the error budget")
    dist = _resolve_null(data, transform, dist, mc)
    interval = _invert_treated_at(_ProfileCache(data, transform), k_prime, alpha_eff, dist)
    return SingleCi(interval, k, k_prime, corr, alpha_eff)


def ci_count(data, transform, c, alpha, gamma=DEFAULT_GAMMA, dist=None, mc=DEFAULT_MC):
    """1-alpha confidence interval {lower..n} for the number of effects
    exceeding c, from scanning the corrected p-value across k.

    Returns the contiguous hull from n downward; the correction makes the
    scanned p-value only near-monotone in k, so the hull is conservative
    whenever an interior gap occurs.
    """
    _require_complete(data)
    n, n_t = data.n, data.n_t
    dist = _resolve_null(data, transform, dist, mc)
    k_max = -1
    for k in range(0, n + 1):
        kp = choose_kprime_single(n, n_t, k, alpha, gamma)
        p = corrected_pvalue(data, transform, k, c, kp, dist, mc).value
        if p > alpha:
            k_max = k
    return (n - k_max if k_max >= 0 else 0, n)


def simultaneous_cis(data, transform, ks, alpha, gamma=DEFAULT_GAMMA, mc=DEFAULT_MC,
                     dist=None, combine_sides=False, corrections=None):
    """Simultaneous 1-alpha confidence intervals for the effect quantiles
    tau_(k_j) among all units via joint count thresholds.

    With combine_sides, both orientations run at alpha/2 and each quantile
    keeps the better (larger) lower bound, making the result invariant to
    treatment labeling.
    """
    _require_complete(data)
    ks = sorted(int(k) for k in ks)
    if combine_sides:
        spec_t, spec_c = corrections if corrections is not None else (None, None)
        fam_t = simultaneous_cis(data, transform, ks, alpha / 2.0, gamma, mc,
                                 dist, False, spec_t)
        fam_c = simultaneous_cis(switch_labels_negate(data), transform, ks,
                                 alpha / 2.0, gamma, mc, None, False, spec_c)
        entries, warnings = [], set(fam_t.warnings) | set(fam_c.warnings)
        for (k, iv_t), (_, iv_c) in zip(fam_t.entries, fam_c.entries):
            best = max((iv_t, iv_c), key=lambda iv: (iv.lower, iv.closed))
            entries.append((k, best))
        return IntervalFamily(tuple(entries), 1.0 - alpha, True,
                              "sample-quantiles-all", tuple(sorted(warnings)))

    n, n_t = data.n, data.n_t
    spec = corrections
    if spec is None:
        spec = choose_kprime_multi(n, n_t, ks, alpha, gamma)
    alpha_eff = alpha - spec.correction
    if alpha_eff <= 0.0:
        entries = tuple((k, UNINFORMATIVE) for k in ks)
        return IntervalFamily(entries, 1.0 - alpha, True, "sample-quantiles-all",
                              ("correction consumed the error budget",))
    dist = _resolve_null(data, transform, dist, mc)
    profiles = _ProfileCache(data, transform)
    entries = [(k, _invert_treated_at(profiles, kp, alpha_eff, dist))
               for k, kp in zip(ks, spec.k_primes)]
    return IntervalFamily(tuple(entries), 1.0 - alpha, True, "sample-quantiles-all")


def band(family, n):
    """Step-function extension of simultaneous quantile intervals to every
    k = 1..n: each k inherits the interval of the largest covered index."""
    idx = [int(k) for k, _ in family.entries]
    ivs = [iv for _, iv in family.entries]
    entries = []
    j = -1
    for k in range(1, n + 1):
        while j + 1 < len(idx) and idx[j + 1] <= k:
            j += 1
        entries.append((k, ivs[j] if j >= 0 else UNINFORMATIVE))
    return IntervalFamily(tuple(entries), family.level, True, family.target,
                          family.warnings)
