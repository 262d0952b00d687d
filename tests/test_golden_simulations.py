"""Pinned outputs of the simulation studies on small seeded cells.

Each study inverts a cell's replicates with the family functions of
``qite.simulate``.  The study rows pin every median lower limit as float
hex, with its informative count.  The coverage audits pin the coverage,
also as hex, and a digest of the float hex bounds and closedness of every
family the audit computed; each replicate's hit is a function of its
family and its latent effects, which the seed fixes.  Cells run balanced
(treat_fraction 0.5) and unbalanced, whose two orientations have
different nulls.  A change to any pin changes what the studies report.
"""

import hashlib

import pytest

from qite import DgpSpec, MonteCarloConfig, simulate
from qite.simulate import coverage_audit, gamma_study, method_comparison

MC = MonteCarloConfig(300, 5)

ROWS = {
    ('method_comparison', 0.5): {
        ('m0', 0.3): ([0, 0, 3, 3, 3], [
            '-inf', '-inf', '0x1.ee5514e6a1480p-6',
            '0x1.04ca3f6b26912p+0', '0x1.85434d21a3cb2p+0',
        ]),
        ('m0', 0.7): ([0, 0, 3, 3, 3], [
            '-inf', '-inf', '-0x1.0bd65d09382f8p-3',
            '0x1.a0cf15fdf8f68p-2', '0x1.cfe83d0146b46p-1',
        ]),
        ('m1', 0.3): ([3, 3, 3, 3, 3], [
            '0x1.46b0f1ecd15ccp-3', '0x1.f15aa80f07580p-2', '0x1.9b91a5ce89870p-1',
            '0x1.1ef5742d57252p+0', '0x1.6b7cc48da2852p+0',
        ]),
        ('m1', 0.7): ([3, 3, 3, 3, 3], [
            '0x1.6fb9e74d2a540p-3', '0x1.9e0f4ea100130p-2', '0x1.5bf548d218d58p-1',
            '0x1.cfe83d0146b46p-1', '0x1.0bee5f11295dep+0',
        ]),
        ('m2', 0.3): ([0, 0, 3, 3, 3], [
            '-inf', '-inf', '0x1.64fc6df8c269cp-3',
            '0x1.9b91a5ce89870p-1', '0x1.452e3f8bb9e6fp+0',
        ]),
        ('m2', 0.7): ([0, 0, 3, 3, 3], [
            '-inf', '-inf', '0x1.24d9c937d8584p-2',
            '0x1.7e596d4fa5a77p-1', '0x1.d0f3b2f520b10p-1',
        ]),
    },
    ('method_comparison', 0.4): {
        ('m0', 0.3): ([0, 0, 0, 3, 3], [
            '-inf', '-inf', '-inf',
            '0x1.41628dd14a506p-1', '0x1.90f77877b9b9ap+0',
        ]),
        ('m0', 0.7): ([0, 0, 0, 3, 3], [
            '-inf', '-inf', '-inf',
            '0x1.75e158b037e20p-2', '0x1.006a9dbc41809p+0',
        ]),
        ('m1', 0.3): ([3, 3, 3, 3, 3], [
            '0x1.bcaf6c798d980p-2', '0x1.02debdab2d833p-1', '0x1.ba2b343dcc93ap-1',
            '0x1.04ca3f6b26912p+0', '0x1.85434d21a3cb2p+0',
        ]),
        ('m1', 0.7): ([3, 3, 3, 3, 3], [
            '0x1.3c3551b287798p-2', '0x1.148a49032b0dcp-1', '0x1.c2ca08db58ddep-1',
            '0x1.00fa72669bc68p+0', '0x1.44014fbcf4f98p+0',
        ]),
        ('m2', 0.3): ([0, 3, 3, 3, 3], [
            '-inf', '0x1.00f571053d240p-7', '0x1.bcaf6c798d980p-2',
            '0x1.0b799df91a861p-1', '0x1.2cde7ff53850bp+0',
        ]),
        ('m2', 0.7): ([0, 3, 3, 3, 3], [
            '-inf', '-0x1.0bd65d09382f8p-3', '0x1.9b427babf2060p-2',
            '0x1.808bb4648ccbbp-1', '0x1.361e9004ab3a2p+0',
        ]),
    },
    ('gamma_study', 0.5): {
        ('0.0', 0.5): ([0, 0, 3, 3, 3], [
            '-inf', '-inf', '-0x1.015dfbe37da62p-1',
            '0x1.5836d313f6e71p-1', '0x1.ff4fb80dd78bep-1',
        ]),
        ('0.3', 0.5): ([0, 3, 3, 3, 3], [
            '-inf', '-0x1.564d222a7125ep-1', '0x1.bbfd7a2a7c668p-3',
            '0x1.461a1d6f5b8bep-1', '0x1.ff4fb80dd78bep-1',
        ]),
        ('0.6', 0.5): ([0, 0, 3, 3, 3], [
            '-inf', '-inf', '0x1.35aa41b663810p-3',
            '0x1.6466715de2c2ep-1', '0x1.ad349135f82eap-1',
        ]),
    },
    ('gamma_study', 0.4): {
        ('0.0', 0.5): ([0, 0, 3, 3, 3], [
            '-inf', '-inf', '0x1.bbfd7a2a7c668p-3',
            '0x1.130b1bb545b4cp-1', '0x1.31924b517c04bp+0',
        ]),
        ('0.3', 0.5): ([0, 3, 3, 3, 3], [
            '-inf', '-0x1.afc8f7efc7370p-4', '0x1.a4729e23d7a52p-2',
            '0x1.130b1bb545b4cp-1', '0x1.ff4fb80dd78bep-1',
        ]),
        ('0.6', 0.5): ([0, 3, 3, 3, 3], [
            '-inf', '-0x1.afc8f7efc7370p-4', '0x1.a4729e23d7a52p-2',
            '0x1.130b1bb545b4cp-1', '0x1.f060169797aa9p-1',
        ]),
    },
}

AUDITS = {
    ('combined-all-quantiles', 0.3): ('0x1.0000000000000p+0', 8, '5944720fdcecee27'),
    ('combined-all-quantiles', 0.5): ('0x1.0000000000000p+0', 8, '1c56e6e4db7662ad'),
    ('multi-quantile', 0.3): ('0x1.0000000000000p+0', 8, '2249b4cfa1cfc191'),
    ('multi-quantile', 0.5): ('0x1.0000000000000p+0', 8, '18de8aa1719f06e5'),
    ('single-quantile', 0.3): ('0x1.0000000000000p+0', 8, 'b7c75df23624bb35'),
    ('single-quantile', 0.5): ('0x1.0000000000000p+0', 8, '8f0713416707336b'),
}


def by_method(rows):
    """Rows as (method or gamma, rho2) -> (informative counts, lower limits)."""
    out = {}
    for r in rows:
        counts, lows = out.setdefault((r["method_or_gamma"], r["rho2"]), ([], []))
        counts.append(r["n_informative"])
        lows.append(float(r["median_lower"]).hex())
    return out


@pytest.mark.parametrize("study", ["method_comparison", "gamma_study"])
@pytest.mark.parametrize("fraction", [0.5, 0.4])
def test_study_rows_match_pin(study, fraction):
    spec = DgpSpec(n=30, treat_fraction=fraction, replications=3, seed=2024)
    if study == "method_comparison":
        rows = method_comparison(spec, rho2s=(0.3, 0.7), s=6, mc=MC)
    else:
        rows = gamma_study(spec, gammas=(0.0, 0.3, 0.6), s=6, mc=MC)
    assert by_method(rows) == {key: tuple(v) for key, v in ROWS[(study, fraction)].items()}


def digest(results):
    """Float hex bounds and closedness of families or single intervals."""
    lines = []
    for res in results:
        entries = res.entries if hasattr(res, "entries") else [(res.k, res.interval)]
        lines += [f"{k} {'[' if iv.closed else '('}{float(iv.lower).hex()}"
                  for k, iv in entries]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


FAMILY_NAMES = {"combined-all-quantiles": "combine_treated_control",
                "single-quantile": "ci_single", "multi-quantile": "simultaneous_cis"}


@pytest.mark.parametrize("procedure", list(FAMILY_NAMES))
@pytest.mark.parametrize("fraction", [0.5, 0.3])
def test_audit_matches_pin(procedure, fraction, monkeypatch):
    name = FAMILY_NAMES[procedure]
    results, family = [], getattr(simulate, name)

    def recorded(*args, **kwargs):
        out = family(*args, **kwargs)
        results.extend(out if isinstance(out, list) else [out])
        return out

    monkeypatch.setattr(simulate, name, recorded)
    spec = DgpSpec(n=30, treat_fraction=fraction, replications=8, seed=77)
    res = coverage_audit(procedure, spec, alpha=0.5, mc=MC)
    assert (float(res.coverage).hex(), len(results), digest(results)) == \
        AUDITS[(procedure, fraction)]
