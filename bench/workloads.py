"""Seeded inputs and operation streams for the benchmark workloads.

Every workload is a closed loop with one client: it runs the command-line
analyses of one pass in order, each through ``qite.cli.main(argv)``, and
starts the next only when the previous one returned.  A pass is a fixed mix
of operations; the workload seed only changes the data values, the order
of the operations and each operation's ``--seed``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

GAMMA_GRID = "1.0,1.3,2.2,4.0,8.3,38.4"
QUANTILES = "0.5,0.6,0.7,0.8,0.9"


@dataclass(frozen=True)
class Op:
    """One CLI analysis: argv without ``--output``; ``check`` names the
    output check that applies; ``data`` is the dataset key or None."""

    label: str
    argv: tuple
    check: str
    data: str | None = None


def _rng(seed, *tags):
    return np.random.default_rng(np.random.SeedSequence([int(seed), *tags]))


def op_seed(seed, pass_index, op_index):
    """Per-operation Monte Carlo seed, distinct across passes and ops."""
    return int(_rng(seed, 90, pass_index, op_index).integers(1, 2**31 - 1))


# ---------------------------------------------------------------------------
# Input data
# ---------------------------------------------------------------------------

def _write_csv(path, columns, rows):
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(str(v) for v in row) + "\n" for row in rows)


def _cre(rng, n, n_t, integer):
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[:n_t]] = 1
    gains = rng.normal(2.0, 6.0, n) + z * rng.gamma(2.0, 1.2, n)
    y = np.round(gains / 3.0) if integer else np.round(gains, 1)
    return [(int(a), float(b)) for a, b in zip(z, y)]


def _stratified(rng, n_strata):
    """Strata of 8 to 16 units with about half treated; the sizes are the
    same for every seed, so the exact null costs the same on every run."""
    rows = []
    for s in range(n_strata):
        n_s = 8 + (5 * s) % 9
        n_st = n_s // 2 + s % 3 - 1
        z = np.zeros(n_s, dtype=int)
        z[rng.permutation(n_s)[:n_st]] = 1
        y = np.round(rng.normal(0.3 * s, 3.0, n_s) + z * rng.gamma(2.0, 1.2, n_s), 1)
        rows += [(int(a), float(b), f"s{s:02d}") for a, b in zip(z, y)]
    return rows


def _matched(rng, n_sets, size):
    rows = []
    for s in range(n_sets):
        z = np.zeros(size, dtype=int)
        z[rng.integers(size)] = 1
        y = np.round(rng.normal(0.0, 2.0, size) + z * rng.gamma(2.0, 1.0, size), 1)
        rows += [(int(a), float(b), f"m{s:03d}") for a, b in zip(z, y)]
    return rows


DATASETS = {
    "cre-cli": {
        # n = 20 is enumerated exactly (C(20, 10) assignments); integer
        # outcomes put ties on the jump grid
        "cre20": lambda rng: (("z", "y"), _cre(rng, 20, 10, integer=True)),
        # the shape of the reference fixture used in the tests
        "cre233": lambda rng: (("z", "y"), _cre(rng, 233, 164, integer=False)),
        "cre1000": lambda rng: (("z", "y"), _cre(rng, 1000, 500, integer=False)),
    },
    "strata-sens": {
        "strata": lambda rng: (("z", "y", "stratum"), _stratified(rng, 20)),
        "pairs": lambda rng: (("z", "y", "stratum"), _matched(rng, 300, 2)),
        "triples": lambda rng: (("z", "y", "stratum"), _matched(rng, 300, 3)),
    },
}


def prepare(workload, seed, directory):
    """Write the workload's input CSVs; returns {dataset key: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for i, (key, make) in enumerate(sorted(DATASETS[workload].items())):
        columns, rows = make(_rng(seed, 10, i))
        path = os.path.join(directory, f"{key}.csv")
        _write_csv(path, columns, rows)
        paths[key] = path
    return paths


# ---------------------------------------------------------------------------
# Operation mixes (one pass each)
# ---------------------------------------------------------------------------

W = ("--statistic", "wilcoxon")
S6 = ("--statistic", "stephenson", "--s", "6")

SIM_CELL = ("simulate", "--study", "method-comparison", "--n", "100",
            "--statistic", "stephenson", "--s", "6",
            "--replications", "2", "--mc-draws", "20000")
SIM_AUDIT = ("simulate", "--study", "coverage", "--procedure", "combined-all-quantiles",
             "--n", "40", "--replications", "8", "--mc-draws", "20000")


def _cre_cli_mix():
    m0 = ("quantile-ci", "--method", "m0", "--all")
    m1 = ("quantile-ci", "--method", "m1", "--all")
    m2 = ("quantile-ci", "--method", "m2", "--quantiles", QUANTILES)
    pop = ("population-ci", "--population-size", "5000", "--betas", QUANTILES)
    sup = ("population-ci", "--superpopulation", "--betas", "0.5,0.7,0.9")

    def test(k, c):
        return ("test", "--k", str(k), "--c", str(c), "--method", "corrected")

    # Sorted by latency a pass falls into blocks: 26 light ops (n = 20
    # with an exact null and one inversion, and small coverage audits),
    # 8 n = 20 ops that also choose count thresholds, 18 simulation cells,
    # 5 ops at n = 233 and 3 at n = 1000.  The median lands in the second
    # block and the tail latency (10 ops above it) among the cells, each
    # away from a block edge.
    mix = []
    for stat in (W, S6):
        # n = 20: m0 and the corrected tests are checked against the oracle
        for alpha in ("0.1", "0.2", "0.05"):
            mix.append(("cre20", m0 + stat + ("--alpha", alpha), "oracle-m0"))
        for alpha in ("0.1", "0.05"):
            mix.append(("cre20", m1 + stat + ("--alpha", alpha), "family"))
        for k, c in (("n", 0), (18, -2), (16, 1), (14, 0), (12, 0.5)):
            mix.append(("cre20", test(k, c) + stat, "oracle-test"))
        mix += [
            ("cre20", m2 + stat, "family"),
            ("cre20", m2 + stat + ("--band",), "family"),
            ("cre20", pop + stat, "family"),
            ("cre20", sup + stat, "family"),
        ]
    # n = 233, n_t = 164, and n = 1000, balanced
    mix += [
        ("cre233", m1 + W, "family"),
        ("cre233", m1 + S6, "family"),
        ("cre233", m2 + S6 + ("--band",), "family"),
        ("cre233", pop + W, "family"),
        ("cre233", sup + S6, "family"),
        ("cre1000", m1 + W, "family"),
        ("cre1000", m2 + S6 + ("--band",), "family"),
        ("cre1000", test(800, 0) + W, "test"),
    ]
    # simulation studies on the CLI's default thread pool: the null is built
    # once per op and reused by every replicate
    for _ in range(6):
        for rho2 in ("0.1", "0.5", "0.9"):
            mix.append((None, SIM_CELL + ("--rho2", rho2), "sim-cells"))
        mix.append((None, SIM_AUDIT, "sim-coverage"))
    return mix


def _strata_sens_mix():
    # Sorted by latency: 24 light tests, 1 stratified quantile-ci, 6
    # single-Gamma pairs analyses, then 8 heavy ops.  The median falls among
    # the tests and the tail latency (10 ops above it) among the
    # single-Gamma analyses.
    mix = []
    # the stratified design has 237 units, 113 of them treated
    for c in (-1.0, 0.0, 0.5, 2.0):
        for k, scope in (("n", "all"), ("150", "all"), ("120", "all"),
                         ("40", "treated"), ("25", "treated"), ("10", "treated")):
            mix.append(("strata", ("test", "--k", k, "--c", str(c), "--scope", scope) + W,
                        "test"))
    mix.append(("strata", ("quantile-ci", "--method", "m1", "--all") + W, "stratified-qci"))
    # Gamma bounds of similar cost: larger bounds settle much faster
    for gamma in ("2.2", "2.5", "2.8", "3.0", "3.3", "3.6"):
        mix.append(("pairs", ("sensitivity", "--mode", "pairs", "--gamma-grid", gamma) + W,
                    "sensitivity"))
    for units_target in (("--population-size", "5000"), ("--superpopulation",)):
        mix.append(("strata", ("population-ci",) + units_target
                    + ("--betas", "0.5,0.7,0.9", "--units", "all") + W, "family"))
    for _ in range(3):
        mix.append(("pairs", ("sensitivity", "--mode", "pairs", "--gamma-grid", GAMMA_GRID)
                    + W, "sensitivity"))
    for _ in range(3):
        mix.append(("triples", ("sensitivity", "--mode", "gaussian",
                                "--gamma-grid", GAMMA_GRID) + W, "sensitivity"))
    return mix


MIXES = {
    "cre-cli": _cre_cli_mix,
    "strata-sens": _strata_sens_mix,
}


def ops_for_pass(workload, seed, pass_index, paths):
    """The pass's operations in seeded order, each with its own --seed.

    Stratified quantile-ci ops share one seed per run so that a single
    reference family (``combine_scre``) checks all of them.
    """
    mix = MIXES[workload]()
    order = _rng(seed, 20, pass_index).permutation(len(mix))
    shared = op_seed(seed, 0, 10_000)
    ops = []
    for i, j in enumerate(order):
        data, argv, check = mix[j]
        s = shared if check == "stratified-qci" else op_seed(seed, pass_index, i)
        full = (argv[0],)
        if data is not None:
            full += ("--data", paths[data])
        full += argv[1:] + ("--seed", str(s))
        ops.append(Op(_label(data, argv), full, check, data))
    return ops


def _label(data, argv):
    words = [argv[0]]
    for flag in ("--method", "--study", "--mode", "--statistic"):
        if flag in argv:
            words.append(argv[argv.index(flag) + 1])
    if "--rho2" in argv:
        words.append("rho2=" + argv[argv.index("--rho2") + 1])
    if "--superpopulation" in argv:
        words.append("super")
    if "--band" in argv:
        words.append("band")
    if data is not None:
        words.append(data)
    return " ".join(words)
