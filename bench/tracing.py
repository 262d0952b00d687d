"""In-memory span tracer installed around qite's layers from outside.

Each hook replaces one module-level name through which a layer calls
another (for instance ``qite.cre.min_stat_cre``, the name ``cre`` resolves
when it calls into ``worst_case``) with a wrapper that records a span or a
counter.  The program's source is untouched, and ``Tracer.uninstall``
restores every replaced name.  Spans record name, start, end, parent span
and operation id, plus the thread id so that spans from ``simulate``'s
worker threads can be told apart.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
import weakref
from collections import Counter, defaultdict
from typing import NamedTuple

# (module, attribute, span name).  "Class.method" patches a method.
SPAN_HOOKS = (
    ("qite.cli", "main", "cli.main"),
    ("qite.cli", "load_experiment", "model.load"),
    ("qite.model", "ExperimentData.stratum_members", "model.strata_index"),
    ("qite.model", "ExperimentData.stratum_sizes", "model.strata_index"),
    ("qite.cre", "null_for", "engine.null"),
    ("qite.stratified", "null_for", "engine.null"),
    ("qite.simulate", "null_for", "engine.null"),
    ("qite.cre", "min_stat_cre", "worst_case.min_stat"),
    ("qite.stratified", "min_stat_scre_profile", "worst_case.profile"),
    ("qite.cli", "combine_treated_control", "cre.family"),
    ("qite.cli", "intervals_from_treated_only", "cre.family"),
    ("qite.cli", "simultaneous_cis", "cre.family"),
    ("qite.cli", "band", "cre.family"),
    ("qite.cli", "pvalue_all", "cre.family"),
    ("qite.cli", "pvalue_treated", "cre.family"),
    ("qite.cli", "corrected_pvalue", "cre.family"),
    ("qite.simulate", "combine_treated_control", "cre.family"),
    ("qite.simulate", "intervals_from_treated_only", "cre.family"),
    ("qite.simulate", "simultaneous_cis", "cre.family"),
    ("qite.simulate", "ci_single", "cre.family"),
    ("qite.population", "combine_treated_control", "cre.family"),
    ("qite.population", "prediction_intervals_treated", "cre.family"),
    ("qite.cli", "choose_kprime_single", "tails.kprime"),
    ("qite.cre", "choose_kprime_single", "tails.kprime"),
    ("qite.cre", "choose_kprime_multi", "tails.kprime"),
    ("qite.population", "choose_kprime_multi", "tails.kprime"),
    ("qite.simulate", "choose_kprime_multi", "tails.kprime"),
    ("qite.cli", "pvalue_scre", "stratified.family"),
    ("qite.cli", "sensitivity_curve", "stratified.family"),
    ("qite.population", "combine_scre", "stratified.family"),
    ("qite.population", "intervals_scre", "stratified.family"),
    ("qite.stratified", "worst_case_tail", "stratified.tail"),
    ("qite.cli", "population_cis", "population.cis"),
    ("qite.simulate", "population_cis", "population.cis"),
    ("qite.cli", "method_comparison", "simulate.study"),
    ("qite.cli", "coverage_audit", "simulate.study"),
    ("qite.cli", "gamma_study", "simulate.study"),
)

# calls counted without a span: a stratified test computes one p-value
COUNT_HOOKS = (
    ("qite.cli", "pvalue_scre", "stratified.pvalue_evals"),
)

# p-value evaluations are counted where an inversion calls its p-value
# function; grid points where a jump grid is built
PFUN_HOOKS = (
    ("qite.cre", "invert_lower_bound", "cre.pvalue_evals"),
    ("qite.stratified", "invert_lower_bound", "stratified.pvalue_evals"),
)
GRID_HOOKS = (
    ("qite.cre", "jump_grid"),
    ("qite.stratified", "stratified_jump_grid"),
)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int


class Tracer:
    def __init__(self):
        self.op_id = None
        self.missing = []
        self._spans = []
        self._counters = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._nulls_seen = weakref.WeakSet()
        self._undo = []

    # -- recording -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._spans.append(Span(sid, name, start, end, parent, self.op_id,
                                    threading.get_ident()))

    def count(self, name, k=1):
        with self._lock:
            self._counters[name] += k

    def spans(self):
        return list(self._spans)

    def counters(self):
        with self._lock:
            return dict(self._counters)

    # -- hooks ---------------------------------------------------------

    def _patch(self, module, attr, make):
        try:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{attr}")
            return
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def install(self):
        for module, attr, span in SPAN_HOOKS:
            self._patch(module, attr, lambda f, span=span: self._span_wrapper(span, f))
        for module, attr, counter in COUNT_HOOKS:
            self._patch(module, attr, lambda f, c=counter: self._count_wrapper(c, f))
        for module, attr, counter in PFUN_HOOKS:
            self._patch(module, attr, lambda f, c=counter: self._pfun_wrapper(c, f))
        for module, attr in GRID_HOOKS:
            self._patch(module, attr, self._grid_wrapper)
        self._patch("qite.simulate", "_parallel", self._parallel_wrapper)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _span_wrapper(self, span, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            out = tracer.call(span, fn, args, kwargs)
            if span == "engine.null":
                tracer._note_null(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_null(self, dist):
        with self._lock:
            if dist in self._nulls_seen:
                return
            self._nulls_seen.add(dist)
            self._counters["engine.null_builds"] += 1
            if dist.provenance and dist.provenance[0] == "exact":
                self._counters["engine.null_exact_builds"] += 1

    def _count_wrapper(self, counter, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(counter)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _pfun_wrapper(self, counter, fn):
        tracer = self

        def wrapper(pfun, *args, **kwargs):
            def counted(*a, **kw):
                tracer.count(counter)
                return pfun(*a, **kw)

            return fn(counted, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _grid_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            grid = fn(*args, **kwargs)
            tracer.count("cre.grid_points", len(grid))
            return grid

        wrapper.__wrapped__ = fn
        return wrapper

    def _parallel_wrapper(self, fn):
        """Each replicate becomes a span whose parent is the study span
        that submitted it, whichever thread runs it."""
        tracer = self

        def wrapper(rep, items, *args, **kwargs):
            parent = tracer.current()

            def traced(item):
                return tracer.call("simulate.replicate", rep, (item,), {}, parent)

            return fn(traced, items, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------

# span name -> metric that sums the spans' self time
SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "model.load": "model.load_s",
    "model.strata_index": "model.strata_index_s",
    "engine.null": "engine.null_s",
    "worst_case.min_stat": "worst_case.min_stat_s",
    "worst_case.profile": "worst_case.profile_s",
    "cre.family": "cre.family_s",
    "tails.kprime": "tails.kprime_s",
    "stratified.tail": "stratified.tail_s",
    "stratified.family": "stratified.family_s",
    "population.cis": "population.cis_s",
    "simulate.study": "simulate.study_self_s",
}

# span name -> metric that counts the spans
CALL_METRICS = {
    "model.load": "model.load_calls",
    "model.strata_index": "model.strata_index_calls",
    "worst_case.min_stat": "worst_case.min_stat_calls",
    "worst_case.profile": "worst_case.profile_calls",
    "tails.kprime": "tails.kprime_calls",
    "stratified.tail": "stratified.tail_calls",
    "population.cis": "population.cis_calls",
    "simulate.replicate": "simulate.replicates",
}


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover.

    Children running in parallel threads cover the same stretch once, so
    a study span waiting on its replicate threads keeps no self time for
    the wait.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children[s.sid], s.start, s.end)
            for s in spans}


def layer_metrics(spans, counters):
    selfs = self_times(spans)
    out = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    out.update({name: 0 for name in CALL_METRICS.values()})
    # a replicate is timed whole: its own self time is only data generation
    out["simulate.replicate_s"] = 0.0
    for s in spans:
        if s.name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[s.name]] += selfs[s.sid]
        if s.name in CALL_METRICS:
            out[CALL_METRICS[s.name]] += 1
        if s.name == "simulate.replicate":
            out["simulate.replicate_s"] += s.end - s.start
    builds = counters.get("engine.null_builds", 0)
    out["engine.null_builds"] = builds
    out["engine.null_exact_share"] = (
        counters.get("engine.null_exact_builds", 0) / builds if builds else 0.0)
    out["cre.pvalue_evals"] = counters.get("cre.pvalue_evals", 0)
    out["cre.grid_points"] = counters.get("cre.grid_points", 0)
    strat_evals = counters.get("stratified.pvalue_evals", 0)
    out["stratified.pvalue_evals"] = strat_evals
    profiles = out["worst_case.profile_calls"]
    out["stratified.profile_reuse"] = strat_evals / profiles if profiles else 0.0
    return out
