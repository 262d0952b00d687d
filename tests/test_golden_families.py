"""Pinned interval families of the CLI on small one-decimal fixtures.

One-decimal outcomes put ulp-close thresholds on the jump grid, so these
families record where floating point leaves each bound and its closedness.
Each bound is pinned as float hex, prefixed "[" when closed and "(" when
open.  A change to any of them changes what the CLI reports; one made on
purpose (such as exact decimal thresholds) updates the pins with it.
"""

import json

import numpy as np
import pytest

from qite.cli import main

SEEDS = {"strata": 5, "pairs": 6, "sets": 7, "cre": 8}


def fixture_csv(kind):
    """Seeded CSV text: unequal strata, matched pairs, matched sets of
    three and four with one treated unit each, or one completely
    randomized experiment of 40 units."""
    rng = np.random.default_rng(SEEDS[kind])
    shapes = {
        "strata": [(6, 2), (5, 3), (7, 4), (4, 1)],
        "pairs": [(2, 1)] * 10,
        "sets": [(3, 1)] * 6 + [(4, 1)] * 3,
        "cre": [(40, 20)],
    }[kind]
    rows = []
    for s, (n_s, n_st) in enumerate(shapes):
        z = np.zeros(n_s, dtype=int)
        z[rng.permutation(n_s)[:n_st]] = 1
        y = np.round(rng.normal(0.0, 1.0, n_s) + 0.8 * z, 1)
        rows += [(zi, yi, f"s{s}") for zi, yi in zip(z.tolist(), y.tolist())]
    if kind == "cre":
        return "z,y\n" + "".join(f"{z},{y!r}\n" for z, y, _ in rows)
    return "z,y,stratum\n" + "".join(f"{z},{y!r},{s}\n" for z, y, s in rows)


def run_families(tmp_path, kind, argv):
    path = tmp_path / "data.csv"
    path.write_text(fixture_csv(kind))
    assert main(argv + ["--data", str(path), "--output", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    families = payload["families"] if "families" in payload else {"": payload}
    return {
        gamma: ([e["index"] for e in fam["entries"]],
                [("[" if e["closed"] else "(") + float(e["lower"]).hex()
                 for e in fam["entries"]])
        for gamma, fam in families.items()
    }


def ks(n):
    return list(range(1, n + 1))


CASES = {
    "stratified-m1": ("strata", ["quantile-ci", "--method=m1", "--all", "--alpha=0.2"], {
        "": (ks(22), ["(-inf"] * 16 + [
            "[-0x1.3333333333334p-2", "(-0x1.999999999999cp-3", "(0x1.9999999999998p-3",
            "[0x1.9999999999998p-2", "[0x1.0000000000000p-1", "(0x1.0000000000000p-1"]),
    }),
    "pairs-sensitivity": ("pairs", ["sensitivity", "--mode=pairs", "--gamma-grid=1,1.5,3",
                                    "--alpha=0.2"], {
        "1.0": (ks(10), ["(-inf"] * 6 + [
            "(-0x1.ccccccccccccdp+1", "[-0x1.3333333333334p-2", "[-0x1.3333333333334p-2",
            "[-0x1.999999999999ap-4"]),
        "1.5": (ks(10), ["(-inf"] * 7 + [
            "(-0x1.ccccccccccccdp+1", "[-0x1.3333333333334p-2", "[-0x1.3333333333334p-2"]),
        "3.0": (ks(10), ["(-inf"] * 9 + ["(-0x1.ccccccccccccdp+1"]),
    }),
    "gaussian-sensitivity": ("sets", ["sensitivity", "--mode=gaussian",
                                      "--gamma-grid=1,1.5,3", "--alpha=0.2"], {
        "1.0": (ks(9), ["(-inf"] * 6 + [
            "[-0x1.3333333333333p+0", "(0x1.0000000000000p-1", "[0x1.199999999999ap+0"]),
        "1.5": (ks(9), ["(-inf"] * 7 + ["[-0x1.9999999999999p-1", "[0x1.ccccccccccccdp-1"]),
        "3.0": (ks(9), ["(-inf"] * 7 + ["[-0x1.b333333333333p+0", "[0x1.99999999999a0p-4"]),
    }),
    "m2-quantiles": ("cre", ["quantile-ci", "--method=m2", "--quantiles=0.5,0.7,0.8,0.9",
                             "--alpha=0.2", "--mc-draws=2000", "--seed=11"], {
        "": ([20, 28, 32, 36], ["(-inf"] * 2 + [
            "[-0x1.e666666666666p+0", "[-0x1.0000000000000p+0"]),
    }),
}


@pytest.mark.parametrize("name", CASES)
def test_family_matches_pin(tmp_path, name):
    kind, argv, want = CASES[name]
    assert run_families(tmp_path, kind, argv) == want
