"""Minimum of the (stratified) rank statistic over composite effect nulls.

For the hypothesis that at most n-k effects exceed c, the minimizing effect
configuration gives the m = min(n-k, n_t) treated units with the largest
observed outcomes unbounded effects (imputed control outcome -inf) and
effect exactly c to everyone else.  For stratified designs the unbounded
slots must additionally be allocated across strata, an exact integer
resource-allocation problem solved here by dynamic programming.  A
completely randomized design is the one-stratum case, with no allocation
to make.

``tie_shift`` selects the evaluation point around a threshold: 0 means the
statistic exactly at c, -1 the limit from above (c + eps), +1 the limit
from below (c - eps).  Shifted evaluations resolve exact ties between an
imputed treated outcome and a control outcome without float epsilon games.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import NEG_INF
from .engine import per_stratum_transforms, statistic, stratified_statistic


def _largest_treated_first(z, y, c):
    """Treated indices ordered by imputed outcome y - c descending, ties
    largest index first: from the top, the order in which the statistic
    ranks them.

    Evicting the top-ranked treated units leaves every kept unit's rank as
    low as it can be, which is what attains the minimum.  In particular
    the smallest index among equal imputed outcomes is kept, and on an
    exact tie with a control outcome it ranks below the control.  Ordering
    by y instead agrees except where y - c rounds distinct outcomes to one
    value.  (Exactness is enforced against the brute-force oracle in the
    tests.)
    """
    treated = np.flatnonzero(np.asarray(z) == 1)
    imputed = np.asarray(y, dtype=float)[treated] - c
    return treated[np.lexsort((-treated, -imputed))]


def _imputed_outcomes(z, y, m, c, slot_order=None):
    z = np.asarray(z)
    y = np.asarray(y, dtype=float)
    out = np.where(z == 1, y - c, y)
    if m > 0:
        slots = _largest_treated_first(z, y, c) if slot_order is None else slot_order
        out[slots[:m]] = NEG_INF
    return out


def _shift_vector(z, tie_shift):
    if tie_shift == 0:
        return None
    return np.where(np.asarray(z) == 1, tie_shift, 0)


# entries of the cost-table index matrix built per block: bounds the
# transient memory of one large stratum to O(n_s), not O(n_st * n_s)
_COST_BLOCK = 1 << 15


def _cost_table_direct(z_s, y_s, transform, c, tie_shift):
    """f(m), m = 0..n_st, by one full statistic evaluation per m."""
    slots = _largest_treated_first(z_s, y_s, c)
    shift = _shift_vector(z_s, tie_shift)
    return np.array([
        statistic(z_s, _imputed_outcomes(z_s, y_s, m, c, slots), transform, shift)
        for m in range(slots.size + 1)
    ])


def _treated_ranks(z, y, c, tie_shift, strata=None):
    """Within-stratum ranks of the treated units at threshold c, none
    evicted: ascending within each stratum, strata in code order.

    z, y and strata (None for one stratum) hold one data set's units, with
    c one threshold; or a row per threshold of the vector c, each row a
    data set of one design, ranked alone.  One sort of all units of a row,
    by stratum, then imputed outcome (y - c for treated units, y for
    controls), then shift; the sorts are stable, so ties fall back to
    position as in ``engine.ranks``.
    """
    imputed = np.where(z == 1, y - np.asarray(c, dtype=float)[..., None], y)
    keys = [imputed]
    if tie_shift != 0:
        keys.insert(0, _shift_vector(z, tie_shift))
    if strata is not None:
        keys.append(strata)
    order = (np.argsort(imputed, axis=-1, kind="stable") if len(keys) == 1
             else np.lexsort(keys, axis=-1))
    ranked = z[order] if z.ndim == 1 else np.take_along_axis(z, order, axis=-1)
    treated = np.nonzero(ranked == 1)[-1].reshape(*z.shape[:-1], -1)
    R = treated + 1
    if strata is not None:
        # sorted by stratum first: position j lies in the stratum whose
        # units fill it, the same for every row of one design
        counts = np.bincount(np.atleast_2d(strata)[0])
        R -= np.repeat(np.cumsum(counts) - counts, counts)[treated]
    return R


def _shifted_treated_ranks(yt, yc, c, rows, tie_shift):
    """``_treated_ranks`` of one-stratum data sets at tie_shift +-1, from
    each data set's treated and control outcomes, each row ascending: a
    row of ranks per threshold c[b], of data set rows[b].

    Row b of ``yt - c[b]`` is the subtraction ``_treated_ranks`` makes,
    sorted because rounding is monotone, so treated unit p ranks p + 1 plus
    the controls of its data set strictly below (tie_shift -1) or at or
    below (+1) its imputed outcome: one ``searchsorted`` per run of rows of
    one data set.
    """
    side = "left" if tie_shift < 0 else "right"
    cuts = (np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist()
    R = [np.searchsorted(yc[rows[a]], yt[rows[a]] - c[a:b, None], side)
         for a, b in zip([0] + cuts, cuts + [rows.size])]
    return np.arange(1, yt.shape[1] + 1) + (R[0] if len(R) == 1 else np.concatenate(R))


def _cost_table(R, phi):
    """Within-stratum cost table f(m), m = 0..n_st, from the stratum's
    ascending treated ranks R and its scores phi.

    With the treated units in ascending rank order at m = 0 (ranks R_p),
    evicting the top m of them moves them to ranks 1..m and every kept
    unit p up by m:

        f(m) = phi(1) + ... + phi(m) + sum_{p < n_st - m} phi(R_p + m)

    Each f(m) is summed as one contiguous row in ascending-rank order, the
    order ``engine.statistic`` sums in, so the table is bit-identical to
    the direct evaluation.  (Where every treated unit imputes to -inf, at
    c = +inf, they all share ranks 1..n_st whichever were evicted.)
    """
    n_st = R.size
    f = np.empty(n_st + 1)
    rows = max(1, _COST_BLOCK // max(n_st, 1))
    for a in range(0, n_st + 1, rows):
        m = np.arange(a, min(a + rows, n_st + 1))[:, None]
        f[a:a + m.shape[0]] = phi[_entry_indices(R, m)].sum(axis=1)
    return f


def _entry_indices(R, m):
    """Score indices (rank - 1) of cost-table rows m, each ascending.

    R holds the ascending treated ranks at m = 0, one vector shared by
    every row or one row each; m is a column of slot counts (or a scalar
    for one row).  Row m is 0..m-1, the evicted units, followed by
    R_p + m - 1 for the kept units p < n_t - m.
    """
    cols = np.arange(R.shape[-1])
    kept = cols - m
    at = np.maximum(kept, 0)
    shifted = R[at] if R.ndim == 1 else R[np.arange(R.shape[0])[:, None], at]
    return np.where(kept < 0, cols, shifted + m - 1)


def _cost_tables(data, R, transforms):
    """Every stratum's cost table, from its slice of ``_treated_ranks``."""
    tables = []
    a = 0
    for (n_s, n_st), transform in zip(data.stratum_sizes(), transforms):
        tables.append(_cost_table(R[a:a + n_st], transform.scores(n_s)))
        a += n_st
    return tables


def _allocation_dp(tables, n_t):
    """Min-plus DP over per-stratum cost tables.

    Stage s holds, for each u, the minimum of f_1(m_1) + ... + f_s(m_s)
    over m_1 + ... + m_s <= u (capped at n_t slots); returns the last
    stage.  No convexity of f_s is assumed.
    """
    dp = np.zeros(1)
    for f in tables:
        n_st = f.size - 1
        prev = dp
        width = min(prev.size - 1 + n_st, n_t)
        dp = np.full(width + 1, np.inf)
        for m in range(n_st + 1):
            hi = min(prev.size, dp.size - m)
            if hi > 0:
                np.minimum(dp[m:m + hi], prev[:hi] + f[m], out=dp[m:m + hi])
        np.minimum.accumulate(dp, out=dp)
    return dp


def min_stat_scre_profile(data, transforms, c, tie_shift=0):
    """Profile over slot capacities: entry u is the minimum statistic when
    up to u unbounded-effect slots may be allocated across strata
    (u = 0..n_t).

    Every design is ranked once, by ``_treated_ranks``.  One stratum
    (including a completely randomized design) gets its cost table, which
    ``min_stat_scre`` and ``stratified._ProfileCache.entries`` read entry by
    entry without building it; one treated unit per stratum gets a closed
    form; otherwise ``_allocation_dp`` over the per-stratum cost tables,
    exact within-stratum statistics, is the profile.  f_s is nonincreasing in m,
    so the minimum at capacity u is attained using all u slots and the
    profile itself is nonincreasing.
    """
    transforms = per_stratum_transforms(data, transforms)
    R = _treated_ranks(data.z, data.y, c, tie_shift,
                       data.strata if data.n_strata > 1 else None)
    if data.n_strata == 1:
        return _cost_table(R, transforms[0].scores(data.n))
    if data.n_t == data.n_strata:   # each stratum holds at least one treated unit
        return _profile_one_treated(data, R, transforms)
    return _allocation_dp(_cost_tables(data, R, transforms), data.n_t)


def _profile_one_treated(data, R, transforms):
    """Closed-form profile for one treated unit per stratum, whose rank in
    stratum s is R[s].

    Evicting stratum s moves its treated unit to within-stratum rank 1, so
    the allocation problem reduces to keeping the u largest savings
    f_s(0) - phi_s(1).  The scores of each distinct transform are looked
    up once: phi(r) does not depend on the stratum size.
    """
    sizes = data.stratum_sizes()
    if transforms.count(transforms[0]) == len(transforms):
        # one transform for every stratum, the common case: no grouping;
        # the scores for the largest stratum serve every stratum
        phi = transforms[0].scores(max(sizes)[0])
        f0, f1 = phi[R - 1], phi[0]
    else:
        counts = np.array([n_s for n_s, _ in sizes])
        groups = {}
        for s, tr in enumerate(transforms):
            groups.setdefault(id(tr), (tr, []))[1].append(s)
        f0 = np.empty(len(sizes))
        f1 = np.empty(len(sizes))
        for tr, members in groups.values():
            members = np.asarray(members)
            phi = tr.scores(counts[members].max())
            f0[members] = phi[R[members] - 1]
            f1[members] = phi[0]
    savings = np.sort(f0 - f1)[::-1]
    profile = np.empty(data.n_t + 1)
    profile[0] = f0.sum()
    profile[1:] = profile[0] - np.cumsum(savings)
    return profile


def min_stat_scre(data, transforms, k, c, tie_shift=0):
    """Infimum of the (stratified) statistic over effect vectors with at
    most n-k entries above c (all-units scope), for any design: entry
    min(n-k, n_t) of the profile.  One stratum sums that one row of its
    cost table; strata read it from the whole profile."""
    n = data.n
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}]")
    m = min(n - k, data.n_t)
    if data.n_strata > 1:
        return float(min_stat_scre_profile(data, transforms, c, tie_shift)[m])
    phi = per_stratum_transforms(data, transforms)[0].scores(n)
    return float(phi[_entry_indices(_treated_ranks(data.z, data.y, c, tie_shift), m)].sum())


min_stat_cre = min_stat_scre


def brute_force_min(data, transforms, scope, k, c, tie_shift=0, max_configs=300_000):
    """Exhaustive minimum over two-point effect configurations (testing oracle).

    Enumerates every effect vector with entries in {c, +inf} subject to the
    scope's cap on +inf entries: at most n-k anywhere for the all-units
    hypothesis, at most n_t-k among treated for the treated-units one.
    Any configuration in the composite null reduces to one of these, so the
    enumeration attains the true infimum.  Intended for tiny instances.
    """
    z = data.z
    n, n_t = data.n, data.n_t
    if scope == "all":
        pool = np.arange(n)
        cap = n - k
    elif scope == "treated":
        pool = np.flatnonzero(z == 1)
        cap = n_t - k
    else:
        raise ValueError(f"unknown scope {scope!r}")
    if cap < 0:
        raise ValueError("k exceeds the scope size")
    cap = min(cap, pool.size)
    total = sum(math.comb(pool.size, j) for j in range(cap + 1))
    if total > max_configs:
        raise ValueError(f"{total} configurations exceed oracle budget {max_configs}")

    shift = _shift_vector(z, tie_shift)
    best = np.inf
    base = np.where(z == 1, data.y - c, data.y)
    for j in range(cap + 1):
        for subset in itertools.combinations(pool, j):
            out = base.copy()
            idx = np.fromiter(subset, dtype=np.int64, count=j)
            if j:
                out[idx[z[idx] == 1]] = NEG_INF   # +inf effect on a control is inert
            val = stratified_statistic(data, transforms, out, shift)
            if val < best:
                best = val
    return float(best)


def enumerate_allocations_min(data, transforms, k, c, tie_shift=0):
    """Exhaustive minimum over feasible slot allocations (DP cross-check).

    Builds its cost tables by direct statistic evaluation, independently
    of the closed form the DP uses.
    """
    transforms = per_stratum_transforms(data, transforms)
    capacity = min(data.n - k, data.n_t)
    tables = [
        _cost_table_direct(data.z[idx], data.y[idx], transform, c, tie_shift)
        for idx, transform in zip(data.stratum_members(), transforms)
    ]
    best = np.inf
    for combo in itertools.product(*(range(len(t)) for t in tables)):
        if sum(combo) > capacity:
            continue
        val = sum(t[m] for t, m in zip(tables, combo))
        best = min(best, val)
    return float(best)
