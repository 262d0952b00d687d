"""Batch command-line interface.

Subcommands wrap the library: quantile-ci, test, sensitivity,
population-ci, simulate.  Every run writes the result artifacts plus a
manifest recording the input digest, all resolved flags, seeds and draw
counts, so identical invocations reproduce outputs bit-exactly.

Exit codes: 0 ok, 2 input error, 3 flag error, 4 internal invariant failure,
5 resource limit (out of memory, or an exact null past its cap).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

from . import __version__
from .model import (
    MAX_ABS_OUTCOME, DataError, IntervalFamily, MonteCarloConfig, RankTransform,
    _json_real, load_experiment, quantile_index,
)
from .cre import band, corrected_pvalue, simultaneous_cis
from .engine import ExactEnumerationError
from .population import PopulationTarget, population_cis
from .stratified import (
    combine_treated_control, intervals_from_treated_only, pvalue, sensitivity_curve,
)
from .simulate import DgpSpec, coverage_audit, gamma_study, method_comparison, rows_to_csv
from .tails import choose_kprime_single

SEED_ENV = "QITE_SEED"


class FlagError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise FlagError(message)


def _float_list(text):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise FlagError(f"expected a comma-separated number list, got {text!r}") from None


def _threshold(text):
    """An effect threshold, at most twice the outcome bound in size, so that
    an outcome minus it stays finite."""
    try:
        value = float(text)
    except ValueError:
        raise FlagError(f"expected a number, got {text!r}") from None
    if not abs(value) <= 2 * MAX_ABS_OUTCOME:
        raise FlagError(f"expected a finite number within +-{2 * MAX_ABS_OUTCOME:.6g}, "
                        f"got {text!r}")
    return value


def _build_parser():
    p = _Parser(prog="qite", description=__doc__)
    p.add_argument("--version", action="version", version=f"qite {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, data=True):
        if data:
            sp.add_argument("--data", required=True, help="input CSV path")
            sp.add_argument("--shuffle-seed", type=int, default=None,
                            help="apply and record a seeded row shuffle")
        sp.add_argument("--statistic", choices=("wilcoxon", "stephenson"),
                        default="wilcoxon")
        sp.add_argument("--s", type=int, default=6,
                        help="stephenson parameter (ignored for wilcoxon)")
        sp.add_argument("--alpha", type=float, default=0.1)
        sp.add_argument("--mc-draws", type=int, default=100_000)
        sp.add_argument("--seed", type=int, default=None,
                        help=f"Monte Carlo seed (default: ${SEED_ENV} or 2024)")
        sp.add_argument("--output", default="qite-run",
                        help="prefix for result, CSV and manifest files")

    sp = sub.add_parser("quantile-ci", help="confidence intervals for effect quantiles")
    add_common(sp)
    sp.add_argument("--method", choices=("m0", "m1", "m2"), required=True)
    sp.add_argument("--gamma", type=float, default=0.5,
                    help="correction budget fraction for m2")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--quantiles", type=_float_list, default=None,
                       help="comma-separated levels in (0, 1], e.g. 0.5,0.6")
    group.add_argument("--all", action="store_true",
                       help="every quantile index (m0 and m1 only)")
    sp.add_argument("--band", action="store_true",
                    help="extend m2 intervals to a step-function band")

    sp = sub.add_parser("test", help="p-value for a quantile hypothesis")
    add_common(sp)
    sp.add_argument("--k", required=True,
                    help="quantile index, or 'n' for the size of the scope: "
                         "n for --scope all, n_t for --scope treated")
    sp.add_argument("--c", type=_threshold, required=True, help="effect threshold")
    sp.add_argument("--scope", choices=("all", "treated"), default="all")
    sp.add_argument("--method", choices=("original", "corrected"), default="original")
    sp.add_argument("--gamma", type=float, default=0.5)

    sp = sub.add_parser("sensitivity", help="matched-study sensitivity analysis")
    add_common(sp)
    sp.add_argument("--gamma-grid", type=_float_list, default=[1.0],
                    help="confounding bounds, e.g. 1.0,1.3,2.2,4.0,8.3,38.4")
    sp.add_argument("--mode", choices=("pairs", "gaussian"), default="gaussian")

    sp = sub.add_parser("population-ci", help="population effect-quantile intervals")
    add_common(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--population-size", type=int, default=None)
    group.add_argument("--superpopulation", action="store_true")
    sp.add_argument("--betas", type=_float_list, required=True)
    sp.add_argument("--split-gamma", type=float, default=0.5)
    sp.add_argument("--units", choices=("all", "treated", "control"), default="all")

    sp = sub.add_parser("simulate", help="simulation studies and coverage audits")
    add_common(sp, data=False)
    sp.add_argument("--study", choices=("method-comparison", "gamma", "coverage"),
                    required=True)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--rho2", type=_float_list, default=[0.5])
    sp.add_argument("--replications", type=int, default=500)
    sp.add_argument("--gamma", type=float, default=0.5)
    sp.add_argument("--gamma-grid", type=_float_list, default=None)
    sp.add_argument("--quantiles", type=_float_list, default=[0.5, 0.6, 0.7, 0.8, 0.9])
    sp.add_argument("--procedure", default="combined-all-quantiles",
                    help="coverage study procedure name")
    return p


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 2024


def _transform(args):
    if args.statistic == "stephenson":
        return RankTransform.stephenson(args.s)
    return RankTransform.wilcoxon()


def _load(args):
    try:
        with open(args.data, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {args.data}: {exc}") from None
    return load_experiment(raw, getattr(args, "shuffle_seed", None)), hashlib.sha256(raw).hexdigest()


def _family_csv(family, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "lower", "closed", "simultaneous_level"])
        for idx, iv in family.entries:
            writer.writerow([idx, _json_real(iv.lower), iv.closed, family.level])


def _run(args):
    """Load the data, build the transform and the Monte Carlo config, run
    the command, and write its result, CSV and manifest."""
    started = time.monotonic()
    data, digest = _load(args) if hasattr(args, "data") else (None, "")
    transform = _transform(args)
    mc = MonteCarloConfig(args.mc_draws, _resolve_seed(args))
    payload, family, rows = _COMMANDS[args.command](args, data, transform, mc)
    if family is not None:
        for w in family.warnings:
            print(f"warning: {w}", file=sys.stderr)

    prefix = args.output
    paths = {"json": f"{prefix}.json"}
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(paths["json"], "w") as fh:
        fh.write(text)
    if family is not None:
        paths["csv"] = f"{prefix}.csv"
        _family_csv(family, paths["csv"])
    if rows is not None:
        paths["csv"] = f"{prefix}.csv"
        rows_to_csv(rows, paths["csv"])
    manifest = {
        "command": args.command,
        "version": __version__,
        "input_sha256": digest,
        "flags": {k: v for k, v in sorted(vars(args).items()) if k != "command"},
        "seed": _resolve_seed(args),
        "mc_draws": args.mc_draws,
        "elapsed_seconds": round(time.monotonic() - started, 3),
        "outputs": paths,
    }
    with open(f"{prefix}.manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
    sys.stdout.write(text + "\n")


# Each command takes (args, data, transform, mc) and returns the JSON
# payload, the interval family written as CSV (or None) and the simulation
# rows written as CSV (or None).

def cmd_quantile_ci(args, data, transform, mc):
    if args.method == "m2" and args.all:
        raise FlagError("m2 needs an explicit --quantiles list, not --all")
    if args.quantiles is not None:
        if not args.quantiles:
            raise FlagError("--quantiles needs at least one level")
        bad = [q for q in args.quantiles if not 0.0 < q <= 1.0]
        if bad:
            raise FlagError(f"quantile levels must lie in (0, 1]: {bad}")
        ks = sorted({quantile_index(q, data.n) for q in args.quantiles})
    else:
        ks = list(range(1, data.n + 1))

    if args.method == "m0":
        fam = intervals_from_treated_only(data, transform, args.alpha, mc=mc)
    elif args.method == "m1":
        fam = combine_treated_control(data, transform, args.alpha, mc=mc)
    else:
        fam = simultaneous_cis(data, transform, ks, args.alpha, args.gamma, mc,
                               combine_sides=True)
        if args.band:
            fam = band(fam, data.n)
    if args.method in ("m0", "m1") and args.quantiles is not None:
        fam = IntervalFamily(tuple((k, fam.interval(k)) for k in ks),
                             fam.level, fam.simultaneous, fam.target, fam.warnings)
    return fam.to_dict(), fam, None


def cmd_test(args, data, transform, mc):
    size = data.n_t if args.scope == "treated" else data.n
    k = size if args.k == "n" else int(args.k)
    if args.method == "corrected":
        if args.scope != "all":
            raise FlagError("--method corrected tests a hypothesis about all units; "
                            f"--scope {args.scope} does not apply")
        kp = choose_kprime_single(data.n, data.n_t, k, args.alpha, args.gamma)
        res = corrected_pvalue(data, transform, k, args.c, kp, mc=mc)
    else:
        res = pvalue(data, transform, k, args.c, mc=mc, scope=args.scope)
    payload = {
        "p_value": res.value,
        "k": res.hypothesis.k,
        "c": res.hypothesis.c,
        "scope": res.hypothesis.scope,
        "method": res.method,
        "statistic_min": res.statistic_min,
        "correction": res.correction,
        "k_prime": res.k_prime,
        "null_provenance": list(res.null_provenance),
    }
    return payload, None, None


def cmd_sensitivity(args, data, transform, mc):
    curve = sensitivity_curve(data, transform, args.alpha, args.gamma_grid,
                              args.mode, mc)
    payload = {
        "gammas": list(curve.gammas),
        "families": {str(g): fam.to_dict() for g, fam in zip(curve.gammas, curve.families)},
        "zero_exclusion_thresholds": [
            {"k": k, "largest_gamma": g} for k, g in curve.zero_exclusion
        ],
    }
    return payload, curve.families[-1], None


def cmd_population_ci(args, data, transform, mc):
    if args.superpopulation:
        target = PopulationTarget.superpopulation(args.betas)
    else:
        target = PopulationTarget.finite(args.population_size, args.betas)
    fam = population_cis(data, transform, target, args.alpha, mc,
                         args.split_gamma, args.units)
    return fam.to_dict(), fam, None


def cmd_simulate(args, data, transform, mc):
    if not args.rho2:
        raise FlagError("--rho2 needs at least one value")
    if args.study != "method-comparison" and len(args.rho2) > 1:
        raise FlagError(f"--study {args.study} takes one --rho2 value, got {len(args.rho2)}")
    spec = DgpSpec(n=args.n, rho2=args.rho2[0], replications=args.replications,
                   seed=_resolve_seed(args))
    if args.study == "method-comparison":
        rows = method_comparison(spec, rho2s=args.rho2, quantiles=tuple(args.quantiles),
                                 alpha=args.alpha, s=args.s, gamma=args.gamma,
                                 mc=mc)
        payload = {"study": "method-comparison", "rows": len(rows)}
    elif args.study == "gamma":
        gammas = args.gamma_grid
        if gammas is None:
            gammas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        rows = gamma_study(spec, gammas=tuple(gammas), quantiles=tuple(args.quantiles),
                           alpha=args.alpha, s=args.s, mc=mc)
        payload = {"study": "gamma", "rows": len(rows)}
    else:
        result = coverage_audit(args.procedure, spec, alpha=args.alpha,
                                transform=transform, mc=mc,
                                quantiles=tuple(args.quantiles), gamma=args.gamma)
        rows = None
        payload = {
            "study": "coverage",
            "procedure": result.procedure,
            "coverage": result.coverage,
            "mc_se": result.se,
            "replications": result.replications,
        }
    return payload, None, rows


_COMMANDS = {
    "quantile-ci": cmd_quantile_ci,
    "test": cmd_test,
    "sensitivity": cmd_sensitivity,
    "population-ci": cmd_population_ci,
    "simulate": cmd_simulate,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _run(args)
        return 0
    except DataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (FlagError, ValueError) as exc:
        print(f"flag error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 4
    except (MemoryError, ExactEnumerationError) as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
