"""Simulation harness: method comparison, budget-split study, coverage audits.

Potential outcomes are drawn as independent normals with Var(Y(0)) = rho2
and Var(Y(1)) = 1 - rho2 and mean effect 2, so individual effects are
N(2, 1) regardless of rho2; varying rho2 trades tail weight between the
two potential outcome distributions.  Replicate r draws its randomness
from substream (seed, tag, r), so results do not depend on evaluation
order.  A study draws every replicate of a cell first, then inverts them
all in one call per method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import DEFAULT_MC, ExperimentData, NEG_INF, RankTransform, quantile_index, rng_for
from .cre import ci_single, simultaneous_cis
from .population import PopulationTarget, population_cis
from .stratified import combine_treated_control, intervals_from_treated_only

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
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not (0.0 < self.treat_fraction < 1.0
                and 1 <= round(self.treat_fraction * self.n) <= self.n - 1):
            raise ValueError("treat_fraction * n must round to a treated count in [1, n - 1]")
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
    replicates through here, so a tracer can time each replicate: data
    generation, for the studies that then invert every replicate of a
    cell in one call per method, or the whole replicate.
    """
    return [fn(item) for item in items]


def _draw_cell(spec):
    """Every replicate's data and sorted latent effects, drawn before any
    inversion so that each method inverts the whole cell in one call."""
    draws = _parallel(lambda r: generate(spec, r), range(spec.replications))
    return [data for data, _ in draws], [np.sort(tau) for _, tau in draws]


def _quantile_ks(n, quantiles):
    if not quantiles or not all(0.0 < q <= 1.0 for q in quantiles):
        raise ValueError("quantile levels must be a nonempty list in (0, 1], "
                         f"got {list(quantiles)}")
    return [quantile_index(q, n) for q in quantiles]


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
        sample = _draw_cell(cell)[0]
        lowers = {}
        if "m0" in methods:
            lowers["m0"] = intervals_from_treated_only(sample, transform, alpha, mc=mc)
        if "m1" in methods:
            lowers["m1"] = combine_treated_control(sample, transform, alpha / 2.0, mc=mc)
        if "m2" in methods:
            lowers["m2"] = simultaneous_cis(sample, transform, ks, alpha, gamma, mc,
                                            combine_sides=True)
        for method, families in lowers.items():
            mat = np.array([[fam.interval(k).lower for k in ks] for fam in families])
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
    fraction gamma: the m2 rows of ``method_comparison`` per gamma."""
    if not gammas:
        raise ValueError("gammas list is empty")
    return [row | {"method_or_gamma": _gamma_label(gamma)}
            for gamma in gammas
            for row in method_comparison(spec, None, quantiles, alpha, s, gamma, mc, ("m2",))]


def _gamma_label(gamma):
    """One decimal ("0.5") when that reads back as gamma, else the shortest
    text that does, so distinct gammas never share a label."""
    label = f"{gamma:.1f}"
    return label if float(label) == gamma else repr(float(gamma))


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
    betas = tuple(quantiles)

    if procedure == "finite-population":
        if pop_N < spec.n:
            raise ValueError("population must be at least as large as the sample")
        pop_rng = rng_for(spec.seed, _TAG_POP, 0)
        y0_pop = pop_rng.normal(0.0, math.sqrt(spec.rho2), pop_N)
        y1_pop = pop_rng.normal(2.0, math.sqrt(1.0 - spec.rho2), pop_N)
        tau_sorted = np.sort(y1_pop - y0_pop)
        target = PopulationTarget.finite(pop_N, betas)
        truths = [tau_sorted[quantile_index(b, pop_N) - 1] for b in betas]

        def one_rep(r):
            rng = rng_for(spec.seed, _TAG_POP, 1 + r)
            pick = rng.permutation(pop_N)[:spec.n]
            z = np.zeros(spec.n, dtype=np.int8)
            z[rng.permutation(spec.n)[:round(spec.treat_fraction * spec.n)]] = 1
            y = np.where(z == 1, y1_pop[pick], y0_pop[pick])
            fam = population_cis(ExperimentData(z, y), transform, target, alpha, mc)
            return all(fam.interval(b).contains(t) for b, t in zip(betas, truths))

        hits = _parallel(one_rep, range(R))

    elif procedure == "superpopulation":
        from statistics import NormalDist
        tau = NormalDist(2.0, 1.0)   # the effect distribution of generate()
        truths = [tau.inv_cdf(b) if 0.0 < b < 1.0 else math.copysign(math.inf, b - 0.5)
                  for b in betas]
        target = PopulationTarget.superpopulation(betas)

        def one_rep(r):
            data, _ = generate(spec, r)
            fam = population_cis(data, transform, target, alpha, mc)
            return all(fam.interval(b).contains(t) for b, t in zip(betas, truths))

        hits = _parallel(one_rep, range(R))

    elif procedure == "combined-all-quantiles":
        sample, effects = _draw_cell(spec)
        families = combine_treated_control(sample, transform, alpha / 2.0, mc=mc)
        hits = [_covers_sorted(fam, tau) for fam, tau in zip(families, effects)]

    elif procedure == "single-quantile":
        ks = sorted(set(_quantile_ks(spec.n, quantiles)))
        k_mid = ks[len(ks) // 2]
        sample, effects = _draw_cell(spec)
        results = ci_single(sample, transform, k_mid, alpha, gamma, mc=mc)
        hits = [res.interval.contains(tau[k_mid - 1]) for res, tau in zip(results, effects)]

    elif procedure == "multi-quantile":
        ks = _quantile_ks(spec.n, quantiles)
        sample, effects = _draw_cell(spec)
        families = simultaneous_cis(sample, transform, ks, alpha, gamma, mc)
        hits = [all(fam.interval(k).contains(tau[k - 1]) for k in ks)
                for fam, tau in zip(families, effects)]

    else:
        raise ValueError(f"unknown procedure {procedure!r}")

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
