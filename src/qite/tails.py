"""Hypergeometric and multinomial tail machinery for count corrections.

The correction terms bound the probability that more than an allowed number
of the largest effects land in the sampled (treated) group.  Every
correction is exact.  One target has a closed-form hypergeometric or
binomial tail.  Several targets follow the running total of draws below
each target, a Markov chain on 0..n: one transition per target, then the
states below its k' are dropped, in O(J n^2) for J targets.  Single-target
pmfs are running products of their term ratios from the mode, and the
recursion weights are running sums of log ratios, so population sizes in
the tens of thousands neither overflow nor need a special function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import DEFAULT_MC

_STEP_BLOCK = 1 << 16   # transition entries built per block


def _pmf_from_ratios(num, den):
    """PMF whose consecutive terms have ratios p[i+1] / p[i] = num[i] / den[i]
    (all positive and decreasing in i), normalized to sum to 1.

    Built outward from the mode, where the ratio crosses 1, as running
    products of ratios at most 1: no term overflows, none needs a special
    function, and each carries a relative rounding error of a few ulps per
    step from the mode, independent of the population size.
    """
    up = num / den
    mode = int(np.count_nonzero(up > 1.0))
    p = np.ones(up.size + 1)
    p[mode + 1:] = np.cumprod(up[mode:])
    p[:mode] = np.cumprod((den[:mode] / num[:mode])[::-1])[::-1]
    return p / p.sum()


def _check_hg(N, K, n):
    if not (0 <= K <= N and 0 <= n <= N):
        raise ValueError(f"invalid hypergeometric parameters N={N}, K={K}, n={n}")


def hypergeom_support(N, K, n):
    return max(0, n + K - N), min(K, n)


def hypergeom_pmf_vector(N, K, n):
    """PMF over the feasible range, normalized to sum exactly to 1."""
    _check_hg(N, K, n)
    lo, hi = hypergeom_support(N, K, n)
    x = np.arange(lo, hi, dtype=float)
    p = _pmf_from_ratios((K - x) * (n - x), (x + 1.0) * (N - K - n + x + 1.0))
    return np.arange(lo, hi + 1), p


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
    """min{x : CDF(x) >= q}, elementwise over an array of levels q."""
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValueError("quantile level must be in [0, 1]")
    lo, hi = hypergeom_support(N, K, n)
    # the true CDF stays below 1 until the top of the support
    out = np.full(q.shape, hi)
    if not np.all(q >= 1.0):
        _, p = hypergeom_pmf_vector(N, K, n)
        i = np.searchsorted(np.cumsum(p), q, side="left")
        out = np.where(q >= 1.0, out, lo + np.minimum(i, p.size - 1))
    return int(out) if out.ndim == 0 else out


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
    t = np.arange(n, dtype=float)
    return x, _pmf_from_ratios((n - t) * p, (t + 1.0) * (1.0 - p))


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
    """min{x : CDF(x) >= q}, elementwise over an array of levels q."""
    q = np.asarray(q, dtype=float)
    out = np.full(q.shape, n if p > 0.0 else 0)
    if not np.all(q >= 1.0):
        _, pmf = binom_pmf_vector(n, p)
        i = np.searchsorted(np.cumsum(pmf), q, side="left")
        out = np.where(q >= 1.0, out, np.minimum(i, n))
    return int(out) if out.ndim == 0 else out


def _validate_ordered(ks, upper, what):
    ks = [int(k) for k in ks]
    if not ks:
        raise ValueError(f"{what} list is empty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError(f"{what} must be strictly increasing")
    if ks[0] < 0 or ks[-1] > upper:
        raise ValueError(f"{what} must lie in [0, {upper}]")
    return ks


def _validate_betas(betas):
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("betas list is empty")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be strictly increasing")
    if not (0.0 <= betas[0] and betas[-1] <= 1.0):
        raise ValueError("betas must lie in [0, 1]")
    return betas


def _validate_kprimes(k_primes, J, n):
    k_primes = [int(v) for v in k_primes]
    if len(k_primes) != J:
        raise ValueError("need one k' per target")
    if any(v < 0 or v > n for v in k_primes):
        raise ValueError(f"k' values must lie in [0, {n}]")
    return k_primes


def _log_weights(kind, size, n):
    """Log weight of x = 0..n draws from one group of colors: log C(size, x)
    for kind "finite" (size balls), log(size^x / x!) for kind "multinomial"
    (probability size).  -inf where x draws are impossible."""
    top = min(int(size), n) if kind == "finite" else (n if size > 0.0 else 0)
    i = np.arange(1, top + 1)
    ratios = (size - i + 1) / i if kind == "finite" else size / i
    out = np.full(n + 1, -np.inf)
    out[0] = 0.0
    out[1:top + 1] = np.cumsum(np.log(ratios))
    return out


def _step(mass, log_a, log_b):
    """One transition of the running total: from t draws of the colors so
    far to t' = t + x, with log weight log_a[x] + log_b[n - t'], normalized
    over t'.  ``mass`` is (n+1, P), one column per k' tuple; the matrix is
    built a block of rows at a time, and rows with no mass are skipped."""
    n = mass.shape[0] - 1
    gap = np.concatenate([np.full(n, -np.inf), log_a])   # gap[n + x] = log_a[x]
    later = log_b[::-1]                                   # later[t'] = log_b[n - t']
    out = np.zeros_like(mass)
    live = np.flatnonzero(mass.any(axis=1))
    if not live.size:
        return out
    rows = max(1, _STEP_BLOCK // (n + 1))
    for a in range(live[0], live[-1] + 1, rows):
        b = min(a + rows, live[-1] + 1)
        if not mass[a:b].any():
            continue
        logw = gap[np.arange(a, n + 1) - np.arange(a, b)[:, None] + n] + later[a:]
        top = logw.max(axis=1, keepdims=True)
        top[top == -np.inf] = 0.0    # a row no draw reaches; it holds no mass
        w = np.exp(logw - top)
        total = w.sum(axis=1, keepdims=True)
        total[total == 0.0] = 1.0
        out[a:] += (w / total).T @ mass[a:b]
    return out


def _union_tails(kind, N, n, targets, kprime_rows):
    """Exact P(the running total below target j is under k'_j for some j),
    one value per row of ``kprime_rows``.

    kind "finite": n draws without replacement from N units, targets are
    population indices.  kind "multinomial": n i.i.d. draws, targets are
    population fractions.  Given t draws below target j-1, the draws of the
    colors between targets j-1 and j are hypergeometric (binomial), so the
    running total is a Markov chain; the mass dropped below each k'_j is
    the probability that the union first happens at target j.
    """
    kprime_rows = np.asarray(kprime_rows, dtype=np.int64)
    mass = np.zeros((n + 1, kprime_rows.shape[0]))
    mass[0] = 1.0
    spent = np.zeros(kprime_rows.shape[0])
    states = np.arange(n + 1)[:, None]
    edges = [0, *targets, N] if kind == "finite" else [0.0, *targets, 1.0]
    for j in range(len(targets)):
        mass = _step(mass, _log_weights(kind, edges[j + 1] - edges[j], n),
                     _log_weights(kind, edges[-1] - edges[j + 1], n))
        below = states < kprime_rows[:, j]
        spent += np.where(below, mass, 0.0).sum(axis=0)
        mass[below] = 0.0
    return np.minimum(spent, 1.0)


def delta_h(k_primes, N, n, ks, mc=DEFAULT_MC):
    """Probability that, sampling n of N units without replacement, more
    than n - k'_j of the top N - k_j units are sampled, for some j.

    Exact: the hypergeometric tail for a single threshold, the running-total
    recursion for several.  ``mc`` is accepted and ignored.
    """
    ks = _validate_ordered(ks, N, "threshold indices")
    k_primes = _validate_kprimes(k_primes, len(ks), n)
    if len(ks) == 1:
        return hypergeom_sf(N, N - ks[0], n, n - k_primes[0])
    return float(_union_tails("finite", N, n, ks, [k_primes])[0])


def delta_m(k_primes, n, betas, mc=DEFAULT_MC):
    """Multinomial analogue of delta_h for i.i.d. sampling: probability
    that more than n - k'_j draws exceed the beta_j-th population quantile
    for some j.

    Exact: the binomial tail for a single beta, the running-total recursion
    for several.  ``mc`` is accepted and ignored.
    """
    betas = _validate_betas(betas)
    k_primes = _validate_kprimes(k_primes, len(betas), n)
    if len(betas) == 1:
        return binom_sf(n, 1.0 - betas[0], n - k_primes[0])
    return float(_union_tails("multinomial", None, n, betas, [k_primes])[0])


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


def choose_kprime_multi(N, n, ks, alpha, gamma, kind="finite", betas=None):
    """Joint threshold choice for several targets.

    Scales the per-target budget by a common factor kappa in [1/J, 1]: at
    kappa each k'_j is the single-target threshold for budget
    kappa*gamma*alpha.  Keeps the largest kappa on a 1e-3 grid whose exact
    joint correction stays within gamma*alpha; if none does, keeps the
    smallest (the Bonferroni floor).  Every distinct k' tuple on the grid is
    evaluated in one pass of the running-total recursion.

    kind "finite" uses hypergeometric thresholds against population
    indices ks; kind "multinomial" uses binomial thresholds against
    population fractions betas.

    The choice depends on the design only, so it is memoized: a coverage
    audit computes it once for all replicates, and a balanced m2 run once
    for both orientations.
    """
    ks = None if ks is None else tuple(int(k) for k in ks)
    betas = None if betas is None else tuple(float(b) for b in betas)
    return _choose_kprime_multi(N, n, ks, alpha, gamma, kind, betas)


@lru_cache(maxsize=64)
def _choose_kprime_multi(N, n, ks, alpha, gamma, kind, betas):
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    if kind == "finite":
        targets = _validate_ordered(ks, N, "threshold indices")
    elif kind == "multinomial":
        targets = _validate_betas(betas)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    J = len(targets)
    budget = gamma * alpha

    def kprimes_for(kappa):
        level = 1.0 - kappa * budget
        if kind == "finite":
            return [n - hypergeom_quantile(N, N - k, n, level) for k in targets]
        return [n - binom_quantile(n, 1.0 - b, level) for b in targets]

    if J == 1:
        kp = tuple(kprimes_for(1.0))
        corr = delta_h(kp, N, n, targets) if kind == "finite" else delta_m(kp, n, targets)
        return CorrectionSpec(kp, corr, gamma, 1.0)
    if budget == 0.0:
        return CorrectionSpec(tuple(kprimes_for(1.0)), 0.0, gamma, 1.0)

    grid = np.arange(math.ceil(1000.0 / J), 1001) / 1000.0
    table = np.column_stack(kprimes_for(grid))
    tuples, which = np.unique(table, axis=0, return_inverse=True)
    corr = _union_tails(kind, N, n, targets, tuples)[which.ravel()]
    fits = np.flatnonzero(corr <= budget)
    i = int(fits[-1]) if fits.size else 0   # the Bonferroni floor if none fits
    return CorrectionSpec(tuple(int(v) for v in table[i]), float(corr[i]), gamma,
                          float(grid[i]))
