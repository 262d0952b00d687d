"""Simulation harness: method comparison, budget-split study, coverage audits.

Potential outcomes are drawn as independent normals with Var(Y(0)) = rho2
and Var(Y(1)) = 1 - rho2 and mean effect 2, so individual effects are
N(2, 1) regardless of rho2; varying rho2 trades tail weight between the
two potential outcome distributions.  Replicate r draws its randomness
from substream (seed, tag, r), so results do not depend on evaluation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .model import DEFAULT_MC, ExperimentData, NEG_INF, RankTransform, rng_for
from .cre import ci_single, simultaneous_cis
from .population import PopulationTarget, population_cis
from .stratified import combine_treated_control, intervals_from_treated_only
from .tails import choose_kprime_multi

_TAG_DGP = 41
_TAG_POP = 42


@dataclass(frozen=True)
class DgpSpec:
    """Data-generating configuration for the simulation studies."""

    n: int = 100
    rho2: float = 0.5
    treat_fraction: float = 0.5
    replications: int = 500
    seed: int = 94901

    def __post_init__(self):
        if not 0.0 < self.rho2 < 1.0:
            raise ValueError("rho2 must be in (0, 1)")
        if not 0.0 < self.treat_fraction < 1.0:
            raise ValueError("treat_fraction must be in (0, 1)")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")


def generate(spec, replicate=0):
    """One simulated experiment plus its latent individual effects."""
    rng = rng_for(spec.seed, _TAG_DGP, replicate)
    n = spec.n
    y0 = rng.normal(0.0, math.sqrt(spec.rho2), n)
    y1 = rng.normal(2.0, math.sqrt(1.0 - spec.rho2), n)
    tau = y1 - y0
    n_t = round(spec.treat_fraction * n)
    z = np.zeros(n, dtype=np.int8)
    z[rng.permutation(n)[:n_t]] = 1
    y = np.where(z == 1, y1, y0)
    return ExperimentData(z, y), tau


def _parallel(fn, items):
    """Run one replicate per index, in order.  Every study maps its
    replicates through here, so a tracer can time each replicate."""
    return [fn(item) for item in items]


def _quantile_ks(n, quantiles):
    return [math.ceil(q * n) for q in quantiles]


def _m2_corrections(n, n_t, ks, alpha, gamma):
    """Per-orientation joint count thresholds; design-only, so computed once
    per study cell and shared across replications."""
    spec_t = choose_kprime_multi(n, n_t, ks, alpha / 2.0, gamma)
    spec_c = choose_kprime_multi(n, n - n_t, ks, alpha / 2.0, gamma)
    return spec_t, spec_c


def method_comparison(spec, rho2s=None, quantiles=(0.5, 0.6, 0.7, 0.8, 0.9),
                      alpha=0.1, s=6, gamma=0.5, mc=DEFAULT_MC,
                      methods=("m0", "m1", "m2")):
    """Median lower confidence limits per (rho2, quantile, method).

    All methods target overall level 1-alpha: m0 is the single-orientation
    family, m1 pools both orientations at alpha/2 each, m2 applies the
    count correction on both orientations at alpha/2 each with budget
    fraction gamma.  Medians are taken on the extended real line, so -inf
    participates in the ordering.  Returns tidy rows.
    """
    transform = RankTransform.stephenson(s)
    if rho2s is None:
        rho2s = (spec.rho2,)
    rows = []
    for rho2 in rho2s:
        cell = replace(spec, rho2=rho2)
        ks = _quantile_ks(cell.n, quantiles)
        sample = generate(cell, 0)[0]
        corrections = None
        if "m2" in methods:
            corrections = _m2_corrections(sample.n, sample.n_t, ks, alpha, gamma)

        def one_rep(r):
            data, _ = generate(cell, r)
            out = {}
            if "m0" in methods:
                fam = intervals_from_treated_only(data, transform, alpha, mc=mc)
                out["m0"] = [fam.interval(k).lower for k in ks]
            if "m1" in methods:
                fam = combine_treated_control(data, transform, alpha / 2.0, mc=mc)
                out["m1"] = [fam.interval(k).lower for k in ks]
            if "m2" in methods:
                fam = simultaneous_cis(data, transform, ks, alpha, gamma, mc,
                                       combine_sides=True, corrections=corrections)
                out["m2"] = [fam.interval(k).lower for k in ks]
            return out

        reps = _parallel(one_rep, range(cell.replications))
        for method in reps[0]:
            mat = np.array([rep[method] for rep in reps])
            for qi, q in enumerate(quantiles):
                col = mat[:, qi]
                rows.append({
                    "rho2": rho2,
                    "quantile_pct": int(round(q * 100)),
                    "method_or_gamma": method,
                    "median_lower": float(np.median(col)),
                    "n_informative": int(np.sum(col > NEG_INF)),
                })
    return rows


def gamma_study(spec, gammas=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
                quantiles=(0.5, 0.6, 0.7, 0.8, 0.9), alpha=0.1, s=6,
                mc=DEFAULT_MC):
    """Median lower limits of the count-corrected method across the budget
    fraction gamma."""
    transform = RankTransform.stephenson(s)
    ks = _quantile_ks(spec.n, quantiles)
    sample = generate(spec, 0)[0]
    rows = []
    for gamma in gammas:
        corrections = _m2_corrections(sample.n, sample.n_t, ks, alpha, gamma)

        def one_rep(r):
            data, _ = generate(spec, r)
            fam = simultaneous_cis(data, transform, ks, alpha, gamma, mc,
                                   combine_sides=True, corrections=corrections)
            return [fam.interval(k).lower for k in ks]

        mat = np.array(_parallel(one_rep, range(spec.replications)))
        for qi, q in enumerate(quantiles):
            col = mat[:, qi]
            rows.append({
                "rho2": spec.rho2,
                "quantile_pct": int(round(q * 100)),
                "method_or_gamma": f"{gamma:.1f}",
                "median_lower": float(np.median(col)),
                "n_informative": int(np.sum(col > NEG_INF)),
            })
    return rows


@dataclass(frozen=True)
class CoverageResult:
    procedure: str
    coverage: float
    se: float
    replications: int


def _covers_sorted(family, targets):
    """Simultaneous coverage of sorted targets by a family indexed 1..n."""
    targets = np.sort(targets)
    for (k, iv), t in zip(family.entries, targets):
        if not iv.contains(t):
            return False
    return True


def coverage_audit(procedure, spec, alpha=0.1, transform=None, mc=DEFAULT_MC,
                   quantiles=(0.5, 0.7, 0.9), gamma=0.5, pop_N=80):
    """Empirical coverage of an interval procedure against latent effects.

    procedures: "combined-all-quantiles" (pooled family, level 1-2*alpha),
    "single-quantile" and "multi-quantile" (count-corrected, level
    1-alpha), "finite-population" and "superpopulation" (two-step, level
    1-alpha).  Returns the estimate with its Monte Carlo standard error.
    """
    transform = transform or RankTransform.wilcoxon()
    R = spec.replications
    ks = _quantile_ks(spec.n, quantiles)
    betas = tuple(quantiles)

    if procedure == "finite-population":
        if pop_N < spec.n:
            raise ValueError("population must be at least as large as the sample")
        pop_rng = rng_for(spec.seed, _TAG_POP, 0)
        y0_pop = pop_rng.normal(0.0, math.sqrt(spec.rho2), pop_N)
        y1_pop = pop_rng.normal(2.0, math.sqrt(1.0 - spec.rho2), pop_N)
        tau_sorted = np.sort(y1_pop - y0_pop)
        truths = [tau_sorted[math.ceil(pop_N * b) - 1] for b in betas]
        target = PopulationTarget.finite(pop_N, betas)

        def one_rep(r):
            rng = rng_for(spec.seed, _TAG_POP, 1 + r)
            pick = rng.permutation(pop_N)[:spec.n]
            z = np.zeros(spec.n, dtype=np.int8)
            z[rng.permutation(spec.n)[:round(spec.treat_fraction * spec.n)]] = 1
            y = np.where(z == 1, y1_pop[pick], y0_pop[pick])
            fam = population_cis(ExperimentData(z, y), transform, target, alpha, mc)
            return all(fam.interval(b).contains(t) for b, t in zip(betas, truths))

    elif procedure == "superpopulation":
        truths = [2.0 + float(ndtri(b)) for b in betas]   # tau ~ N(2, 1)
        target = PopulationTarget.superpopulation(betas)

        def one_rep(r):
            data, _ = generate(spec, r)
            fam = population_cis(data, transform, target, alpha, mc)
            return all(fam.interval(b).contains(t) for b, t in zip(betas, truths))

    elif procedure == "combined-all-quantiles":
        def one_rep(r):
            data, tau = generate(spec, r)
            fam = combine_treated_control(data, transform, alpha / 2.0, mc=mc)
            return _covers_sorted(fam, tau)

    elif procedure == "single-quantile":
        k_mid = ks[len(ks) // 2]

        def one_rep(r):
            data, tau = generate(spec, r)
            res = ci_single(data, transform, k_mid, alpha, gamma, mc=mc)
            return res.interval.contains(np.sort(tau)[k_mid - 1])

    elif procedure == "multi-quantile":
        def one_rep(r):
            data, tau = generate(spec, r)
            fam = simultaneous_cis(data, transform, ks, alpha, gamma, mc)
            srt = np.sort(tau)
            return all(fam.interval(k).contains(srt[k - 1]) for k in ks)

    else:
        raise ValueError(f"unknown procedure {procedure!r}")

    hits = _parallel(one_rep, range(R))
    p = float(np.mean(hits))
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / R)
    return CoverageResult(procedure, p, se, R)


def rows_to_csv(rows, path):
    """Write tidy simulation rows with the standard column order."""
    import csv

    cols = ["rho2", "quantile_pct", "method_or_gamma", "median_lower", "n_informative"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            if out["median_lower"] == NEG_INF:
                out["median_lower"] = "-inf"
            writer.writerow(out)
