"""Rank-score statistics and their randomization null distributions.

The statistic is sum over treated units of phi(rank of outcome), with ties
broken by unit position.  Under complete randomization its distribution is
free of the outcome values: it depends only on (n, n_t, phi), which is what
makes exact and reusable null distributions possible.  Exact nulls count
subsets by their score sum when the scores are integers (enumerating them
otherwise); Monte Carlo nulls sum the scores of seeded random subsets.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import DEFAULT_MC, rng_for

EXACT_CAP_DEFAULT = 1_000_000

# substream purpose tags
_TAG_CRE_NULL = 11
_TAG_SCRE_NULL = 12


class ExactEnumerationError(RuntimeError):
    """Exact enumeration would exceed the cap; use Monte Carlo mode."""


def ranks(values, tie_shift=None):
    """Ranks 1..n of the coordinates, ties broken by position.

    -inf sentinels rank lowest.  ``tie_shift`` is an optional secondary
    sort key per unit (used to evaluate open limits c +- epsilon exactly:
    a unit with a smaller shift ranks below an exact-tie partner).
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if tie_shift is None:
        order = np.argsort(v, kind="stable")
    else:
        order = np.lexsort((np.arange(n), np.asarray(tie_shift), v))
    r = np.empty(n, dtype=np.int64)
    r[order] = np.arange(1, n + 1)
    return r


def statistic(z, outcomes, transform, tie_shift=None):
    """Rank-score statistic: sum of phi(rank) over treated units."""
    z = np.asarray(z)
    r = ranks(outcomes, tie_shift)
    phi = transform.scores(r.size)
    # summing in sorted-rank order keeps float sums bit-identical with the
    # enumeration order used by the exact null distributions
    treated_ranks = np.sort(r[z == 1])
    return float(phi[treated_ranks - 1].sum())


def stratified_statistic(data, transforms, outcomes=None, tie_shift=None):
    """Sum over strata of within-stratum rank-score statistics."""
    y = data.y if outcomes is None else np.asarray(outcomes, dtype=float)
    transforms = per_stratum_transforms(data, transforms)
    total = 0.0
    for idx, transform in zip(data.stratum_members(), transforms):
        shift = None if tie_shift is None else np.asarray(tie_shift)[idx]
        total += statistic(data.z[idx], y[idx], transform, shift)
    return total


def per_stratum_transforms(data, transforms):
    """Normalize a single transform or a sequence to one per stratum."""
    S = data.n_strata
    if hasattr(transforms, "scores"):
        return (transforms,) * S
    transforms = tuple(transforms)
    if len(transforms) != S:
        raise ValueError(f"need {S} per-stratum transforms, got {len(transforms)}")
    return transforms


# ---------------------------------------------------------------------------
# Null distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NullDistribution:
    """Survival function G(x) = P(t >= x) of a (stratified) rank statistic.

    Discrete form stores sorted support plus tail weights; queries are
    binary searches, so G is evaluable at arbitrary data-dependent points.
    The Gaussian form is used by the asymptotic sensitivity approximation.
    """

    kind: str                      # "discrete" | "gaussian"
    provenance: tuple
    design: tuple
    support: np.ndarray | None = None
    tail: np.ndarray | None = None
    mean: float = 0.0
    sd: float = 0.0

    def survival(self, x):
        """P(t >= x) at a number x, or elementwise at an array of them;
        equals 1 at -inf and 0 above an exact support.

        Sampled nulls carry a pseudo-atom at +inf (add-one convention), so
        their survival never reaches 0 at finite draw counts.  Each array
        element equals the scalar value bit for bit.
        """
        if self.kind == "gaussian":   # erfc(-inf) = 2, so G(-inf) = 1
            xs = np.ravel(x).tolist()
            if self.sd == 0.0:
                p = [1.0 if v <= self.mean else 0.0 for v in xs]
            else:
                scale = self.sd * math.sqrt(2.0)
                p = [0.5 * math.erfc((v - self.mean) / scale) for v in xs]
            return np.reshape(p, np.shape(x)) if np.ndim(x) else p[0]
        i = np.searchsorted(self.support, x, side="left")
        if np.ndim(i):
            return np.where(i < self.tail.size, self.tail.take(i, mode="clip"), 0.0)
        return float(self.tail[i]) if i < self.tail.size else 0.0

    def to_dict(self):
        d = {"kind": self.kind, "provenance": list(self.provenance), "design": list(self.design)}
        if self.kind == "discrete":
            d["support"] = self.support.tolist()
            d["tail"] = self.tail.tolist()
        else:
            d["mean"] = self.mean
            d["sd"] = self.sd
        return d

    @staticmethod
    def from_dict(d):
        if d["kind"] == "discrete":
            return discrete_null(
                np.asarray(d["support"], dtype=float),
                weights=None,
                tail=np.asarray(d["tail"], dtype=float),
                provenance=tuple(d["provenance"]),
                design=tuple(d["design"]),
            )
        return NullDistribution(
            "gaussian", tuple(d["provenance"]), tuple(d["design"]),
            mean=float(d["mean"]), sd=float(d["sd"]),
        )


def survival(dist, x):
    return dist.survival(x)


def discrete_null(support, weights=None, tail=None, provenance=(), design=()):
    """Assemble a discrete null from support values and nonnegative weights."""
    support = np.asarray(support, dtype=float)
    order = np.argsort(support, kind="stable")
    support = support[order]
    if tail is None:
        w = np.asarray(weights, dtype=float)[order]
        tail = np.cumsum(w[::-1])[::-1]
        tail = tail / tail[0]
    support.setflags(write=False)
    tail = np.ascontiguousarray(tail, dtype=float)
    tail.setflags(write=False)
    return NullDistribution("discrete", tuple(provenance), tuple(design),
                            support=support, tail=tail)


def _merge_atoms(values, weights):
    vals, inverse = np.unique(values, return_inverse=True)
    w = np.bincount(inverse, weights=weights, minlength=vals.size)
    return vals, w


def _exact_float_sums(phi):
    """Whether every float sum of entries of phi is an exact integer.

    True for integer-valued scores whose absolute values total less than
    2**53 (no -0.0): then every partial sum is exact in any order, so it
    equals the ascending-order sum bit for bit.
    """
    return bool(np.all(phi == np.round(phi)) and np.abs(phi).sum() < 2.0 ** 53
                and not np.signbit(phi[phi == 0]).any())


def _exact_subset_sums(phi, n, n_t, cap):
    """Support and counts of sum(phi[S]) over all n_t-subsets of 0..n-1.

    Integer-valued scores are counted by their sums; other score tables,
    and sum ranges too wide for a table of ``cap`` counts, are enumerated.
    """
    total = math.comb(n, n_t)
    if total > cap:
        raise ExactEnumerationError(
            f"C({n},{n_t}) = {total} assignments exceed the exact cap {cap}; use Monte Carlo"
        )
    counted = _counted_subset_sums(phi, n_t, cap)
    return counted if counted is not None else _enumerated_subset_sums(phi, n, n_t)


def _counted_subset_sums(phi, n_t, cap):
    """Subset-sum counts by the shift recursion (Streitberg & Rohmel 1986).

    With every score lowered by the smallest one, ways[j, s] counts the
    j-subsets of the scores seen so far whose sum is s; adding a score v
    shifts row j-1 by v into row j.  Returns None unless the scores have exact float sums and
    the (n_t + 1) x (range + 1) table fits the cap.
    """
    if not _exact_float_sums(phi):
        return None
    n = phi.size
    lo = phi.min()
    q = (phi - lo).astype(np.int64)
    top = np.sort(q)[n - n_t:].sum(dtype=float)
    if (n_t + 1) * (top + 1) > cap:
        return None
    top = int(top)
    ways = np.zeros((n_t + 1, top + 1), dtype=np.int64)
    ways[0, 0] = 1
    reach = 0   # largest sum any row can hold so far
    for i, v in enumerate(q.tolist()):
        reach = min(reach + v, top)
        # rows item i can reach that can still grow to n_t items; j going
        # down so that row j - 1 is read before it is updated
        for j in range(min(i + 1, n_t), max(1, n_t - (n - 1 - i)) - 1, -1):
            ways[j, v:reach + 1] += ways[j - 1, :reach + 1 - v]
    w = ways[n_t]
    nz = np.flatnonzero(w)
    return (nz + n_t * int(lo)).astype(float), w[nz].astype(float)


def _enumerated_subset_sums(phi, n, n_t):
    """Reference: enumerate every n_t-subset and merge equal sums."""
    total = math.comb(n, n_t)
    vals = np.empty(total, dtype=float)
    pos = 0
    it = itertools.combinations(range(n), n_t)
    while True:
        chunk = list(itertools.islice(it, 100_000))
        if not chunk:
            break
        idx = np.array(chunk, dtype=np.int64)
        vals[pos:pos + idx.shape[0]] = phi[idx].sum(axis=1)
        pos += idx.shape[0]
    return _merge_atoms(vals, np.ones(total))


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# threads that draw one Monte Carlo null together
_WORKERS = _cpu_count()

# uniforms held at once by all the runs of one Monte Carlo null (2 MB):
# with w runs, each draws blocks of _MC_BLOCK // w, so memory does not grow
# with the CPU count
_MC_BLOCK = 2 ** 18


def _uniform_rows(rng, draws, width, reduce, scratch=()):
    """One value per row of ``rng.random((draws, width))``: reduce(block,
    *buffers) of consecutive row blocks, concatenated.

    The rows are split into one contiguous run per worker, and each run
    reuses one block of uniforms plus one buffer of the block's shape per
    dtype in ``scratch``, all allocated here before any thread starts.
    Run 0 reads the stream itself in the caller's thread; run i reads a
    copy advanced past the rows before it (``random`` takes one 64-bit
    output per double), so every row holds the same uniforms for any
    worker count.  The worker threads are joined before returning.
    """
    out = np.empty(draws)
    # more than one block: every run gets at least one of its own
    workers = min(_WORKERS, draws) if draws * width > _MC_BLOCK else 1
    rows = max(1, _MC_BLOCK // (workers * width))
    cuts = [draws * i // workers for i in range(workers + 1)]
    runs = []
    for i in range(workers):
        gen = rng
        if i:
            gen = copy.deepcopy(rng)
            gen.bit_generator.advance(cuts[i] * width)
        shape = (min(rows, cuts[i + 1] - cuts[i]), width)
        buffers = [np.empty(shape)] + [np.empty(shape, dtype) for dtype in scratch]
        runs.append((gen, out[cuts[i]:cuts[i + 1]], buffers))
    if workers == 1:
        _run_blocks(reduce, *runs[0])
        return out
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(_run_blocks, reduce, *run) for run in runs[1:]]
        _run_blocks(reduce, *runs[0])
        for future in futures:
            future.result()
    return out


def _run_blocks(reduce, gen, out, buffers):
    """Fill ``out`` block by block from ``gen`` into the reused buffers."""
    rows = buffers[0].shape[0]
    for pos in range(0, out.size, rows):
        m = min(rows, out.size - pos)
        block = [b[:m] for b in buffers]
        gen.random(out=block[0])
        out[pos:pos + m] = reduce(*block)


def _mc_subset_sums(phi, n, n_t, mc, tag, stream):
    """Monte Carlo draws of sum(phi[S]) over random n_t-subsets.

    Draw r takes the n_t smallest of row r of ``rng.random((draws, n))``;
    ``_uniform_rows`` reads the rows in blocks on every CPU the process may
    use, which changes neither the stream nor the draws.
    """
    rng = rng_for(mc.seed, tag, stream)
    if n_t == 0:
        return np.zeros(mc.draws, dtype=float)
    if not _exact_float_sums(phi):
        return _uniform_rows(rng, mc.draws, n, lambda u: _sorted_sums(u, phi, n_t))
    weights = np.stack([phi, np.ones_like(phi)], axis=1)

    def sums(u, part, mask):
        s = _threshold_sums(u, weights, n_t, part, mask)
        return _sorted_sums(u, phi, n_t) if s is None else s

    return _uniform_rows(rng, mc.draws, n, sums, (float, float))


def _threshold_sums(u, weights, n_t, part, mask):
    """Select each row's n_t smallest uniforms by the value of the n_t-th.

    ``weights`` stacks the scores and ones as columns, so one product gives
    each row's masked sum and its count; ``part`` and ``mask`` are scratch
    of u's shape.  The sum is exact only when the scores have exact float
    sums; returns None when some row ties at the threshold, so that more
    than n_t entries pass it.
    """
    np.copyto(part, u)
    part.partition(n_t - 1, axis=1)
    np.less_equal(u, part[:, n_t - 1:n_t], out=mask)
    sums, counts = (mask @ weights).T
    return sums if np.all(counts == n_t) else None


def _sorted_sums(u, phi, n_t):
    """Reference: gather each row's n_t smallest and sum them sorted."""
    sel = np.argpartition(u, n_t - 1, axis=1)[:, :n_t]
    return np.sort(phi[sel], axis=1).sum(axis=1)


def convolve_discrete(parts, cap=EXACT_CAP_DEFAULT):
    """Convolution of independent discrete parts [(support, weights), ...].

    Weights within each part should sum to about 1 so that products cannot
    underflow across hundreds of strata; the result is normalized anyway.
    """
    acc_v = np.zeros(1)
    acc_w = np.ones(1)
    for v, w in parts:
        v = np.asarray(v)
        # bound the outer product before building it; the merged support
        # is no larger
        if acc_v.size * v.size > cap:
            raise ExactEnumerationError(
                f"convolving {acc_v.size} by {v.size} atoms exceeds cap {cap}; use Monte Carlo"
            )
        vals = (acc_v[:, None] + v[None, :]).ravel()
        wts = (acc_w[:, None] * np.asarray(w)[None, :]).ravel()
        acc_v, acc_w = _merge_atoms(vals, wts)
    return acc_v, acc_w


def null_distribution(design, transforms, mode="auto", mc=DEFAULT_MC, cap=EXACT_CAP_DEFAULT):
    """Null distribution of the (stratified) rank-score statistic.

    design: ("cre", n, n_t) or ("scre", ((n_s, n_st), ...)); both become
    stratum sizes with one transform per stratum, and a one-stratum SCRE is
    the CRE and gets the same null.
    mode: "exact", "mc", or "auto" (exact when every stratum's C(n_s, n_st)
    fits the cap, else seeded Monte Carlo, recorded as such in the
    provenance).  Exact nulls count (or enumerate) each stratum's
    treated-rank subsets by their score sum and convolve the strata, which
    must also fit the cap; "auto" falls back to Monte Carlo if it does not.
    """
    if design[0] == "cre":
        sizes = (tuple(design[1:]),)
    elif design[0] == "scre":
        sizes = tuple(design[1])
    else:
        raise ValueError(f"unknown design {design[0]!r}")
    if len(sizes) == 1 and not 1 <= sizes[0][1] < sizes[0][0]:
        raise ValueError("CRE design needs 1 <= n_t < n")
    if hasattr(transforms, "scores"):
        transforms = (transforms,) * len(sizes)
    transforms = tuple(transforms)
    if len(transforms) != len(sizes):
        raise ValueError("one transform per stratum required")
    return _null_cached(sizes, transforms, mode, mc, cap)


@lru_cache(maxsize=128)
def _null_cached(sizes, transforms, mode, mc, cap):
    design = ("cre", *sizes[0]) if len(sizes) == 1 else ("scre", sizes)
    strata = tuple(zip(sizes, transforms))
    if mode == "exact" or (
            mode == "auto" and all(math.comb(ns, nst) <= cap for ns, nst in sizes)):
        try:
            parts = [_exact_subset_sums(tr.scores(ns), ns, nst, cap) for (ns, nst), tr in strata]
            # one stratum's counts go in as they are: normalizing them
            # would change the bits of the tail
            vals, wts = parts[0] if len(parts) == 1 else convolve_discrete(
                [(v, w / w.sum()) for v, w in parts], cap)
            return discrete_null(vals, wts, provenance=("exact",), design=design)
        except ExactEnumerationError:
            if mode == "exact":
                raise
    # seeded streams: stream 0 of the CRE tag for one stratum, stream s of
    # the SCRE tag for stratum s of several
    tag = _TAG_CRE_NULL if len(sizes) == 1 else _TAG_SCRE_NULL
    draws = (_mc_subset_sums(tr.scores(ns), ns, nst, mc, tag, s)
             for s, ((ns, nst), tr) in enumerate(strata))
    total = next(draws) if len(sizes) == 1 else sum(draws, np.zeros(mc.draws))
    return _mc_null(total, ("mc", mc.draws, mc.seed), design)


def _mc_null(draws, provenance, design):
    """Discrete null from Monte Carlo draws with the add-one convention.

    A pseudo-draw at +inf makes the estimated survival (B + 1) / (R + 1),
    so p-values from a sampled null are never exactly zero and stay valid
    at any finite draw count.
    """
    vals, wts = _merge_atoms(draws, np.ones(draws.size))
    vals = np.append(vals, np.inf)
    wts = np.append(wts, 1.0)
    return discrete_null(vals, wts, provenance=provenance, design=design)


def null_for(data, transforms, mode="auto", mc=DEFAULT_MC, cap=EXACT_CAP_DEFAULT):
    """Null distribution matching the design of an ExperimentData."""
    return null_distribution(("scre", data.stratum_sizes()),
                             per_stratum_transforms(data, transforms), mode, mc, cap)
