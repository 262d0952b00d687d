"""Steadiness report: repeated benchmark runs with distinct seeds.

    python3 bench/steady.py --workloads cre-cli,strata-sens \
        --seeds 1-10 --seconds 45 --out bench/baseline/steadiness.json

runs ``bench/run.py`` once per (workload, seed), one process at a time,
and reports for every end-to-end metric the median and the spread: the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="cre-cli,strata-sens")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--out", default=None, help="write the report as JSON here")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            result = run_once(workload, seed, seconds)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bounds.get(name)}
            print(f"  {workload} {name}: median {summary[name]['median']:.4g}, "
                  f"spread {summary[name]['spread']:.3f} (bound {bounds.get(name)})",
                  flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
