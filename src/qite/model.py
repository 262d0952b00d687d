"""Experiment data model, rank transforms, and one-sided interval families.

All types are immutable after construction; operations are pure functions,
so everything here is safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

NEG_INF = float("-inf")
POS_INF = float("inf")
# bound on |outcome|: a gap between two outcomes stays below max/2, and an
# outcome minus a gap below 3*max/4, so every threshold and imputed outcome
# is finite
MAX_ABS_OUTCOME = sys.float_info.max / 4


class DataError(ValueError):
    """Input data violate the experiment schema."""


@dataclass(frozen=True)
class MonteCarloConfig:
    """Draw count and seed governing every stochastic approximation.

    Identical configs give bit-identical results: all random streams are
    derived from (seed, purpose tag, replicate index), so outcomes do not
    depend on evaluation order or scheduling.
    """

    draws: int = 100_000
    seed: int = 2024

    def __post_init__(self):
        if self.draws <= 0:
            raise ValueError("draws must be a positive integer")


DEFAULT_MC = MonteCarloConfig()


def rng_for(seed, *tags):
    """Seeded generator for substream (seed, *tags); deterministic."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *(int(t) & 0xFFFFFFFF for t in tags)])
    )


# ---------------------------------------------------------------------------
# Rank transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankTransform:
    """Monotone nondecreasing score function applied to outcome ranks.

    Kinds: "wilcoxon" (score r), "stephenson" with parameter s >= 2
    (score C(r-1, s-1) for r >= s, else 0), and "table" (explicit scores).
    """

    kind: str
    s: int = 0
    table: tuple = ()

    def __post_init__(self):
        if self.kind == "wilcoxon":
            pass
        elif self.kind == "stephenson":
            if self.s < 2:
                raise ValueError("stephenson parameter s must be >= 2")
        elif self.kind == "table":
            t = tuple(float(v) for v in self.table)
            if len(t) == 0:
                raise ValueError("score table must be nonempty")
            if any(b < a for a, b in zip(t, t[1:])):
                raise ValueError("score table must be monotone nondecreasing")
            object.__setattr__(self, "table", t)
        else:
            raise ValueError(f"unknown rank transform kind {self.kind!r}")

    @staticmethod
    def wilcoxon():
        return RankTransform("wilcoxon")

    @staticmethod
    def stephenson(s):
        return RankTransform("stephenson", s=int(s))

    @staticmethod
    def from_table(scores):
        return RankTransform("table", table=tuple(float(v) for v in scores))

    def scores(self, n):
        """Materialized scores phi(1..n) as a read-only float array."""
        return _transform_scores(self, int(n))

    def label(self):
        if self.kind == "stephenson":
            return f"stephenson(s={self.s})"
        return self.kind


@lru_cache(maxsize=256)
def _transform_scores(transform, n):
    if transform.kind == "wilcoxon":
        phi = np.arange(1, n + 1, dtype=float)
    elif transform.kind == "stephenson":
        s = transform.s
        # math.comb is exact; float cast preserves monotonicity
        phi = np.array([float(math.comb(r - 1, s - 1)) if r >= s else 0.0 for r in range(1, n + 1)])
    else:
        if len(transform.table) < n:
            raise ValueError(f"score table has {len(transform.table)} entries, need {n}")
        phi = np.array(transform.table[:n], dtype=float)
    phi.setflags(write=False)
    return phi


# ---------------------------------------------------------------------------
# Experiment data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExperimentData:
    """Treatment assignments, observed outcomes, optional stratum labels.

    Unit ordering is the global tie-break order.  If a shuffle was applied
    at load time, the seed and permutation are recorded so the analysis can
    be replayed exactly.  Stratum codes run 0..S-1 without gaps, and every
    stratum holds a treated and a control unit.
    """

    z: np.ndarray
    y: np.ndarray
    strata: np.ndarray | None = None
    stratum_labels: tuple = ()
    unit_ids: tuple = ()
    shuffle: tuple | None = None   # (seed, permutation applied to raw rows)

    def __post_init__(self):
        z = np.ascontiguousarray(self.z, dtype=np.int8)
        y = np.ascontiguousarray(self.y, dtype=float)
        if z.ndim != 1 or y.shape != z.shape:
            raise DataError("z and y must be 1-d arrays of equal length")
        if z.size == 0:
            raise DataError("experiment has no units")
        if not np.all((z == 0) | (z == 1)):
            raise DataError("treatment indicator must be binary 0/1")
        if not np.all(np.isfinite(y)):
            raise DataError("outcomes must be finite numbers")
        if np.any(np.abs(y) > MAX_ABS_OUTCOME):
            raise DataError(f"outcomes must lie within +-{MAX_ABS_OUTCOME:.6g}")
        if z.sum() < 1 or (1 - z).sum() < 1:
            raise DataError("need at least one treated and one control unit")
        strata = self.strata
        if strata is not None:
            strata = np.ascontiguousarray(strata, dtype=np.int64)
            if strata.shape != z.shape:
                raise DataError("stratum vector length mismatch")
            if strata.min() < 0:
                raise DataError("stratum codes must be nonnegative")
            counts = np.bincount(strata)
            if not counts.all():
                raise DataError(f"stratum codes must run 0..{counts.size - 1} without gaps; "
                                f"code {int(np.argmin(counts))} has no units")
            treated = np.bincount(strata[z == 1], minlength=counts.size)
            lacking = np.flatnonzero((treated == 0) | (treated == counts))
            if lacking.size:
                name = self._stratum_name(lacking[0])
                raise DataError(f"stratum {name!r} lacks a treated or a control unit")
        for arr in (z, y) + ((strata,) if strata is not None else ()):
            arr.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "strata", strata)

    def _stratum_name(self, code):
        if self.stratum_labels and 0 <= code < len(self.stratum_labels):
            return self.stratum_labels[code]
        return int(code)

    @staticmethod
    def from_arrays(z, y, strata=None):
        """Build from raw arrays; stratum values may be arbitrary labels."""
        codes, labels = (None, ()) if strata is None else _code_strata(strata)
        return ExperimentData(np.asarray(z), np.asarray(y), codes, labels)

    @property
    def n(self):
        return int(self.z.size)

    @cached_property
    def n_t(self):
        return int(self.z.sum())

    @property
    def n_c(self):
        return self.n - self.n_t

    @cached_property
    def n_strata(self):
        return 1 if self.strata is None else int(self.strata.max()) + 1

    @cached_property
    def _strata_index(self):
        """(members, sizes), built once: one stable argsort of the stratum
        codes orders every stratum's units by position."""
        if self.strata is None:
            order = np.arange(self.n)
            counts = [self.n]
            treated = [self.n_t]
        else:
            order = np.argsort(self.strata, kind="stable")
            counts = np.bincount(self.strata, minlength=self.n_strata)
            treated = np.bincount(self.strata[self.z == 1], minlength=self.n_strata)
        order.setflags(write=False)
        members = tuple(np.split(order, np.cumsum(counts)[:-1]))
        sizes = tuple((int(ns), int(nst)) for ns, nst in zip(counts, treated))
        return members, sizes

    def stratum_members(self):
        """Tuple of read-only index arrays, one per stratum, in stratum-code
        order; each lists its units by position."""
        return self._strata_index[0]

    def stratum_sizes(self):
        """Per-stratum (n_s, n_st) pairs."""
        return self._strata_index[1]


def _code_strata(labels):
    """Stratum codes numbering labels by first appearance, and the labels
    in code order."""
    seen = {}
    codes = np.array([seen.setdefault(v, len(seen)) for v in labels], dtype=np.int64)
    return codes, tuple(seen)


def switch_labels_negate(data):
    """Swap treatment labels and negate outcomes.

    The transformed experiment has the same individual effects with the
    roles of treated and control exchanged; applying twice is the identity.
    """
    return ExperimentData(
        1 - data.z, -data.y, data.strata, data.stratum_labels, data.unit_ids, data.shuffle
    )


def load_experiment(source, shuffle_seed=None):
    """Parse an experiment from CSV text or bytes.

    Requires header columns ``z`` and ``y``; optional ``stratum`` and
    ``unit_id``.  Rows keep file order unless shuffle_seed is given, in
    which case a seeded random permutation is applied and recorded.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    rows = list(csv.DictReader(io.StringIO(source)))
    if not rows:
        raise DataError("empty CSV: no data rows")
    cols = rows[0].keys()
    for required in ("z", "y"):
        if required not in cols:
            raise DataError(f"missing required column {required!r}")
    z, y, strata, ids = [], [], [], []
    has_stratum = "stratum" in cols
    has_id = "unit_id" in cols
    for i, row in enumerate(rows):
        zv = (row["z"] or "").strip()
        if zv not in ("0", "1"):
            raise DataError(f"row {i + 1}: treatment must be 0 or 1, got {zv!r}")
        z.append(int(zv))
        try:
            yv = float(row["y"])
        except (TypeError, ValueError):
            raise DataError(f"row {i + 1}: outcome {row['y']!r} is not numeric") from None
        if not math.isfinite(yv):
            raise DataError(f"row {i + 1}: outcome must be finite")
        y.append(yv)
        if has_stratum:
            strata.append((row["stratum"] or "").strip())
        if has_id:
            ids.append((row["unit_id"] or "").strip())

    order = np.arange(len(z))
    shuffle = None
    if shuffle_seed is not None:
        order = rng_for(shuffle_seed, 7).permutation(len(z))
        shuffle = (int(shuffle_seed), tuple(int(i) for i in order))
    take = lambda seq: [seq[i] for i in order]
    codes, labels = _code_strata(take(strata)) if has_stratum else (None, ())
    return ExperimentData(
        np.array(take(z)), np.array(take(y), dtype=float), codes, labels,
        tuple(take(ids)) if has_id else (), shuffle,
    )


# ---------------------------------------------------------------------------
# Hypotheses and intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantileHypothesis:
    """tau_(k) <= c for the k-th sorted effect within the given scope."""

    k: int
    c: float
    scope: str = "all"   # "all" | "treated" | "control"

    def __post_init__(self):
        if self.scope not in ("all", "treated", "control"):
            raise ValueError(f"unknown scope {self.scope!r}")
        if self.k < 0:
            raise ValueError("quantile index k must be nonnegative")


def quantile_index(level, n):
    """ceil(level * n), the index of the level-quantile of n sorted values,
    with the level read as the shortest decimal that prints it: 0.55 of 100
    is 55, where the float product 55.00000000000001 would give 56."""
    return math.ceil(Fraction(repr(float(level))) * n)


@dataclass(frozen=True)
class OneSidedInterval:
    """Lower one-sided interval (lower, inf) or [lower, inf)."""

    lower: float
    closed: bool = False

    def contains(self, x):
        return x > self.lower or (self.closed and x == self.lower)

    def excludes_zero(self):
        return not self.contains(0.0)

    @property
    def informative(self):
        return self.lower > NEG_INF


UNINFORMATIVE = OneSidedInterval(NEG_INF, False)


@dataclass(frozen=True)
class IntervalFamily:
    """Ordered map from a target index (k or beta) to a one-sided interval."""

    entries: tuple                 # ((index, OneSidedInterval), ...)
    level: float
    simultaneous: bool
    target: str
    warnings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def interval(self, index):
        for idx, iv in self.entries:
            if idx == index:
                return iv
        raise KeyError(index)

    def lowers(self):
        return np.array([iv.lower for _, iv in self.entries])

    def is_nested(self):
        """Lower bounds nondecreasing in the target index (sorted order)."""
        lows = [iv.lower for _, iv in sorted(self.entries, key=lambda e: e[0])]
        return all(b >= a for a, b in zip(lows, lows[1:]))

    def to_dict(self):
        return {
            "schema_version": 1,
            "target": self.target,
            "level": self.level,
            "simultaneous": self.simultaneous,
            "entries": [
                {"index": idx, "lower": _json_real(iv.lower), "closed": iv.closed}
                for idx, iv in self.entries
            ],
            "warnings": list(self.warnings),
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)

    @staticmethod
    def from_dict(d):
        entries = tuple(
            (e["index"], OneSidedInterval(float(e["lower"]), bool(e["closed"])))
            for e in d["entries"]
        )
        return IntervalFamily(
            entries, float(d["level"]), bool(d["simultaneous"]), d["target"],
            tuple(d.get("warnings", ())),
        )


def _json_real(x):
    """Extended reals serialize as the strings "-inf" / "inf"."""
    if x == NEG_INF:
        return "-inf"
    if x == POS_INF:
        return "inf"
    return float(x)


def pool_one_sided(intervals, target, level, warnings=()):
    """Arrange pooled one-sided intervals by inclusion and index them 1..n.

    The k-th largest lower bound is assigned to the k-th sorted target, so
    the widest interval covers the smallest quantile.  A closed interval
    outranks (contains) an open one at the same endpoint.
    """
    ordered = sorted(intervals, key=lambda iv: (iv.lower, iv.closed is False))
    entries = tuple((k, iv) for k, iv in enumerate(ordered, start=1))
    return IntervalFamily(entries, level, True, target, tuple(warnings))
