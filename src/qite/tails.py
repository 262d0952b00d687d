"""Hypergeometric and multinomial tail machinery for count corrections.

The correction terms bound the probability that more than an allowed number
of the largest effects land in the sampled (treated) group.  All
combinatorial quantities are computed in log-gamma space so population
sizes in the tens of thousands do not overflow; probabilities are
exponentiated last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .model import DEFAULT_MC, rng_for

_TAG_DELTA_H = 21
_TAG_DELTA_M = 22

_DRAW_BLOCK = 16_384   # multinomial rows drawn per call


def _log_comb(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return gammaln(a + 1) - gammaln(b + 1) - gammaln(a - b + 1)


def _check_hg(N, K, n):
    if not (0 <= K <= N and 0 <= n <= N):
        raise ValueError(f"invalid hypergeometric parameters N={N}, K={K}, n={n}")


def hypergeom_support(N, K, n):
    return max(0, n + K - N), min(K, n)


def hypergeom_pmf_vector(N, K, n):
    """PMF over the feasible range, normalized to sum exactly to 1."""
    _check_hg(N, K, n)
    lo, hi = hypergeom_support(N, K, n)
    x = np.arange(lo, hi + 1)
    logp = _log_comb(K, x) + _log_comb(N - K, n - x) - _log_comb(N, n)
    p = np.exp(logp)
    return x, p / p.sum()


def hypergeom_pmf(N, K, n, x):
    lo, hi = hypergeom_support(N, K, n)
    xs, p = hypergeom_pmf_vector(N, K, n)
    x = int(x)
    if x < lo or x > hi:
        return 0.0
    return float(p[x - lo])


def hypergeom_cdf(N, K, n, x):
    lo, _ = hypergeom_support(N, K, n)
    xs, p = hypergeom_pmf_vector(N, K, n)
    x = int(math.floor(x)) if not isinstance(x, (int, np.integer)) else int(x)
    if x < lo:
        return 0.0
    i = min(x - lo, p.size - 1)
    return float(np.cumsum(p)[i])


def hypergeom_sf(N, K, n, x):
    """P(X > x), computed by summing the upper tail directly."""
    lo, hi = hypergeom_support(N, K, n)
    xs, p = hypergeom_pmf_vector(N, K, n)
    if x >= hi:
        return 0.0
    if x < lo:
        return 1.0
    tail = np.cumsum(p[::-1])[::-1]
    return float(tail[int(x) - lo + 1])


def hypergeom_quantile(N, K, n, q):
    """min{x : CDF(x) >= q}."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile level must be in [0, 1]")
    lo, hi = hypergeom_support(N, K, n)
    if q >= 1.0:
        return hi   # the true CDF stays below 1 until the top of the support
    xs, p = hypergeom_pmf_vector(N, K, n)
    cdf = np.cumsum(p)
    i = int(np.searchsorted(cdf, q, side="left"))
    return int(lo + min(i, p.size - 1))


def hypergeom_sample(rng, N, K, n, size=None):
    _check_hg(N, K, n)
    return rng.hypergeometric(K, N - K, n, size=size)


def binom_pmf_vector(n, p):
    x = np.arange(n + 1)
    if p <= 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return x, out
    if p >= 1.0:
        out = np.zeros(n + 1)
        out[-1] = 1.0
        return x, out
    logp = _log_comb(n, x) + x * math.log(p) + (n - x) * math.log1p(-p)
    v = np.exp(logp)
    return x, v / v.sum()


def binom_sf(n, p, x):
    """P(X > x) for X ~ Binomial(n, p)."""
    if x >= n:
        return 0.0
    if x < 0:
        return 1.0
    _, pmf = binom_pmf_vector(n, p)
    tail = np.cumsum(pmf[::-1])[::-1]
    return float(tail[int(x) + 1])


def binom_quantile(n, p, q):
    """min{x : CDF(x) >= q}."""
    if q >= 1.0:
        return n if p > 0.0 else 0
    _, pmf = binom_pmf_vector(n, p)
    cdf = np.cumsum(pmf)
    i = int(np.searchsorted(cdf, q, side="left"))
    return int(min(i, n))


def mhg_sample(rng, colors, ndraw, size):
    """Multivariate hypergeometric samples by sequential conditional draws.

    colors: balls per color; returns a (size, len(colors)) count matrix.
    Each column is drawn from the exact conditional hypergeometric given
    the preceding columns, so no rejection is involved.
    """
    below = _mhg_running_totals(rng, colors, ndraw, size)
    return np.diff(below, axis=1, prepend=0, append=ndraw)


def _mhg_running_totals(rng, colors, ndraw, size):
    """The draws of ``mhg_sample`` as running totals: column j counts the
    balls of colors 0..j, for j < len(colors) - 1.

    Held in the smallest integer type that fits ndraw, which keeps 1e5
    draws of a few colors within a few megabytes.
    """
    colors = np.asarray(colors, dtype=np.int64)
    total = int(colors.sum())
    if not 0 <= ndraw <= total:
        raise ValueError("sample size exceeds ball count")
    below = np.empty((size, colors.size - 1), dtype=np.min_scalar_type(ndraw))
    remaining_draws = np.full(size, ndraw, dtype=np.int64)
    remaining_balls = total
    for j in range(colors.size - 1):
        remaining_balls -= int(colors[j])
        remaining_draws -= rng.hypergeometric(int(colors[j]), remaining_balls,
                                              remaining_draws)
        below[:, j] = ndraw - remaining_draws
    return below


def _multinomial_running_totals(rng, n, probs, size):
    """Running totals (as in ``_mhg_running_totals``) of ``size`` draws of
    ``rng.multinomial(n, probs)``.

    Rows are drawn a block at a time, which consumes the generator exactly
    as one call for all rows does, so only one block of int64 counts is
    held at once.
    """
    below = np.empty((size, len(probs) - 1), dtype=np.min_scalar_type(n))
    for a in range(0, size, _DRAW_BLOCK):
        counts = rng.multinomial(n, probs, size=min(_DRAW_BLOCK, size - a))
        below[a:a + _DRAW_BLOCK] = np.cumsum(counts[:, :-1], axis=1)
    return below


def _validate_ordered(ks, upper, what):
    ks = [int(k) for k in ks]
    if not ks:
        raise ValueError(f"{what} list is empty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError(f"{what} must be strictly increasing")
    if ks[0] < 0 or ks[-1] > upper:
        raise ValueError(f"{what} must lie in [0, {upper}]")
    return ks


def delta_h(k_primes, N, n, ks, mc=DEFAULT_MC):
    """Probability that, sampling n of N units without replacement, more
    than n - k'_j of the top N - k_j units are sampled, for some j.

    Exact for a single threshold; Monte Carlo over the multivariate
    hypergeometric color counts for several.
    """
    ks = _validate_ordered(ks, N, "threshold indices")
    k_primes = [int(v) for v in k_primes]
    if len(k_primes) != len(ks):
        raise ValueError("need one k' per threshold")
    if any(v < 0 or v > n for v in k_primes):
        raise ValueError(f"k' values must lie in [0, {n}]")
    if len(ks) == 1:
        return hypergeom_sf(N, N - ks[0], n, n - k_primes[0])
    return _union_tail_from_below(_running_totals("finite", N, n, ks, mc), k_primes)


def _running_totals(kind, N, n, targets, mc):
    """Seeded Monte Carlo running totals for several targets: draws of n
    units from N split at population indices (kind "finite", multivariate
    hypergeometric) or i.i.d. draws split at population fractions (kind
    "multinomial")."""
    if kind == "finite":
        rng = rng_for(mc.seed, _TAG_DELTA_H, N, n)
        return _mhg_running_totals(rng, np.diff([0, *targets, N]), n, mc.draws)
    rng = rng_for(mc.seed, _TAG_DELTA_M, n)
    return _multinomial_running_totals(rng, n, np.diff([0.0, *targets, 1.0]), mc.draws)


def _union_tail_estimate(counts, n, k_primes):
    return _union_tail_from_below(np.cumsum(counts[:, :-1], axis=1), k_primes)


def _union_tail_from_below(below, k_primes):
    # below[:, j] counts the draws of colors 0..j.  event_j: more than
    # n - k'_j draws of the colors above j, i.e. below[:, j] < k'_j
    hit = np.zeros(below.shape[0], dtype=bool)
    for j, kp in enumerate(k_primes):
        hit |= below[:, j] < kp
    return float(hit.mean())


def delta_m(k_primes, n, betas, mc=DEFAULT_MC):
    """Multinomial analogue of delta_h for i.i.d. sampling: probability
    that more than n - k'_j draws exceed the beta_j-th population quantile
    for some j.  Exact binomial tail for a single beta."""
    betas = [float(b) for b in betas]
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be strictly increasing")
    if betas[0] < 0.0 or betas[-1] > 1.0:
        raise ValueError("betas must lie in [0, 1]")
    k_primes = [int(v) for v in k_primes]
    if len(k_primes) != len(betas):
        raise ValueError("need one k' per beta")
    if any(v < 0 or v > n for v in k_primes):
        raise ValueError(f"k' values must lie in [0, {n}]")
    if len(betas) == 1:
        return binom_sf(n, 1.0 - betas[0], n - k_primes[0])
    return _union_tail_from_below(_running_totals("multinomial", None, n, betas, mc),
                                  k_primes)


def delta_gap_profile(N_sequence, n, betas, k_primes, mc=DEFAULT_MC):
    """|delta_h - delta_m| along a growing population size, with thresholds
    k_j = ceil(N beta_j).  Used as a convergence check, not user-facing."""
    dm = delta_m(k_primes, n, betas, mc)
    gaps = []
    for N in N_sequence:
        ks = [math.ceil(N * b) for b in betas]
        gaps.append(abs(delta_h(k_primes, N, n, ks, mc) - dm))
    return gaps


# ---------------------------------------------------------------------------
# Choosing the count thresholds k'
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrectionSpec:
    """Chosen per-target count thresholds and the realized correction."""

    k_primes: tuple
    correction: float
    gamma: float
    kappa: float

    def __post_init__(self):
        if not 0.0 <= self.correction <= 1.0:
            raise ValueError("correction must be a probability")


def choose_kprime_single(n, n_t, k, alpha, gamma):
    """Largest k' whose hypergeometric correction stays within gamma*alpha.

    Equals n_t minus the (1 - gamma*alpha) quantile of HG(n, n-k, n_t);
    gamma = 0 recovers the zero-correction threshold max(0, k - (n - n_t)).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return n_t - hypergeom_quantile(n, n - k, n_t, 1.0 - gamma * alpha)


def choose_kprime_multi(N, n, ks, alpha, gamma, mc=DEFAULT_MC, kind="finite", betas=None):
    """Joint threshold choice for several targets.

    Scales the per-target budget by a common factor kappa in [1/J, 1] and
    keeps the largest kappa (on a 1e-3 grid) whose joint correction stays
    within gamma*alpha.  The correction is piecewise constant in kappa
    through the integer quantiles, and on shared Monte Carlo draws it is
    monotone in kappa, so a grid bisection finds the exact switch point.

    kind "finite" uses hypergeometric thresholds against population
    indices ks; kind "multinomial" uses binomial thresholds against
    population fractions betas.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    if kind == "finite":
        targets = _validate_ordered(ks, N, "threshold indices")
    elif kind == "multinomial":
        targets = [float(b) for b in betas]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    J = len(targets)
    budget = gamma * alpha

    def kprimes_for(kappa):
        level = 1.0 - kappa * budget
        if kind == "finite":
            return tuple(n - hypergeom_quantile(N, N - k, n, level) for k in targets)
        return tuple(n - binom_quantile(n, 1.0 - b, level) for b in targets)

    if J == 1:
        kp = kprimes_for(1.0)
        corr = delta_h(kp, N, n, targets) if kind == "finite" else delta_m(kp, n, targets)
        return CorrectionSpec(kp, corr, gamma, 1.0)
    if budget == 0.0:
        kp = kprimes_for(1.0)
        return CorrectionSpec(kp, 0.0, gamma, 1.0)

    # shared draws across the kappa search keep the estimate monotone; their
    # running totals are taken once for every kappa probed
    below = _running_totals(kind, N, n, targets, mc)

    def corr_at(kappa):
        return _union_tail_from_below(below, kprimes_for(kappa))

    grid = np.arange(math.ceil(1000.0 / J), 1001) / 1000.0
    lo, hi = 0, grid.size - 1
    if corr_at(grid[hi]) <= budget:
        lo = hi
    elif corr_at(grid[lo]) > budget:
        hi = lo   # even the Bonferroni floor estimate exceeds the budget; keep it
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if corr_at(grid[mid]) <= budget:
                lo = mid
            else:
                hi = mid
    kappa = float(grid[lo])
    kp = kprimes_for(kappa)
    return CorrectionSpec(kp, corr_at(kappa), gamma, kappa)
