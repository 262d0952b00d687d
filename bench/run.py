"""qite benchmark: closed-loop CLI workloads with output checks and traces.

    python3 bench/run.py --workload cre-cli --seed 1 --seconds 30 --trace 0

runs, from the repository root, the workload's passes through
``qite.cli.main(argv)`` in this process until the next pass would end
after ``--seconds`` of measured time (at least one pass), checks every
output, and prints one line per operation, the run metadata, every metric
by name with its unit, and last a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 1`` runs one pass
untraced and the same pass traced, and reports the per-layer metrics
instead.  ``--workload all`` runs every workload, each in its own process.
See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cre-cli", "strata-sens")
HELD_OUT_SEED = 90210
SETUP_PROBES = 5
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics in the result line: counts, ratios, and the self times
# of layers every workload exercises
LAYER_UNITS = {
    "cli.self_s": "s",
    "engine.null_s": "s",
    "worst_case.min_stat_s": "s",
    "cre.family_s": "s",
    "tails.kprime_s": "s",
    "model.load_calls": "count",
    "model.strata_index_calls": "count",
    "engine.null_builds": "count",
    "engine.null_exact_share": "ratio",
    "worst_case.min_stat_calls": "count",
    "worst_case.profile_calls": "count",
    "cre.pvalue_evals": "count",
    "cre.grid_points": "count",
    "tails.kprime_calls": "count",
    "stratified.tail_calls": "count",
    "stratified.profile_reuse": "ratio",
    "population.cis_calls": "count",
    "simulate.replicates": "count",
    "trace.overhead_share": "ratio",
}
# self times of layers some workloads leave idle: exactly 0 there, so they
# are printed and recorded but kept out of the result line
LAYER_PRINTED_UNITS = {
    "model.load_s": "s",
    "model.strata_index_s": "s",
    "worst_case.profile_s": "s",
    "stratified.tail_s": "s",
    "stratified.family_s": "s",
    "population.cis_s": "s",
    "simulate.replicate_s": "s",
    "simulate.study_self_s": "s",
    "stratified.pvalue_evals": "count",
}
PRINTED_UNITS = {**LAYER_PRINTED_UNITS, "replicates_per_s": "1/s", "failed_share": "ratio"}


def import_qite():
    """Import the program from this checkout's ``src``, never elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import qite
        import qite.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import qite from {src}: {exc}")
    if not os.path.abspath(qite.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported qite from {qite.__file__}, not from {src}")
    return qite


def clear_program_caches():
    """Drop every ``functools`` cache in qite, as a fresh CLI process has."""
    for name, module in list(sys.modules.items()):
        if name == "qite" or name.startswith("qite."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def output_digest(stdout, prefix):
    """SHA-256 of the standard output and, when written, the result CSV."""
    digest = hashlib.sha256(stdout.encode())
    if os.path.exists(prefix + ".csv"):
        with open(prefix + ".csv", "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def run_op(qite, op, prefix):
    """One timed CLI call; returns (exit code, stdout, seconds)."""
    clear_program_caches()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    argv = list(op.argv) + ["--output", prefix]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = qite.cli.main(argv)
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), seconds


def run_pass(qite, workload, seed, pass_index, paths, tmp, tracer=None):
    from workloads import ops_for_pass
    records = []
    for i, op in enumerate(ops_for_pass(workload, seed, pass_index, paths)):
        prefix = os.path.join(tmp, f"p{pass_index}-{i}{'-t' if tracer else ''}")
        if tracer is not None:
            tracer.op_id = i
        rc, stdout, seconds = run_op(qite, op, prefix)
        records.append({"pass": pass_index, "index": i, "op": op, "prefix": prefix,
                        "rc": rc, "stdout": stdout, "seconds": seconds,
                        "sha256": output_digest(stdout, prefix)})
    if tracer is not None:
        tracer.op_id = None
    return records


def check_records(ctx, records):
    from checks import check_op
    for r in records:
        try:
            r["problems"] = check_op(ctx, r["op"], r["rc"], r["stdout"], r["prefix"])
        except Exception as exc:   # a check that crashes is a failed op
            r["problems"] = [f"check raised {type(exc).__name__}: {exc}"]


def rerun_identical(qite, records, seed):
    """Rerun one seeded-sampled op; its JSON and CSV outputs must match
    byte for byte.  Returns the record and whether they matched."""
    import numpy as np
    r = records[int(np.random.default_rng([seed, 77]).integers(len(records)))]
    prefix = r["prefix"] + "-rerun"
    rc, stdout, _ = run_op(qite, r["op"], prefix)
    same = rc == r["rc"] and output_digest(stdout, prefix) == r["sha256"]
    if same and rc == 0:
        with open(r["prefix"] + ".json", "rb") as a, open(prefix + ".json", "rb") as b:
            same = a.read() == b.read()
    if not same:
        r["problems"].append("rerun with the same seed changed the output")
    return r, same


def setup_seconds(workload, seed, tmp):
    """Times from a fresh interpreter to inputs ready (qite import plus
    input preparation), one per probe process."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed),
               "--probe-dir", os.path.join(tmp, f"probe{i}")]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def setup_probe(args):
    import_qite()
    from workloads import prepare
    prepare(args.workload, args.seed, args.probe_dir)
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own reading
    print(f"ready {time.monotonic()!r}", flush=True)


def tail_latency(latencies):
    """The latency exceeded by exactly TAIL_BEYOND ops (the maximum when
    there are too few ops), with the percentile it stands for."""
    xs = sorted(latencies)
    i = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def metadata(workload, seed):
    import numpy
    import scipy
    src = os.path.join(ROOT, "src", "qite")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def portable_argv(op):
    """The op's argv with the input path replaced by its dataset key."""
    argv = list(op.argv)
    if op.data is not None:
        argv[argv.index("--data") + 1] = op.data
    return argv


def print_ops(records):
    for r in records:
        status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])
        print(f"op pass={r['pass']} #{r['index']:<3d} {r['seconds']:8.3f} s  "
              f"{r['sha256'][:16]}  {r['op'].label}  {status}")


def print_metrics(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")


def run_workload(args):
    qite = import_qite()
    from checks import Context, known_defect
    from workloads import prepare
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        paths = prepare(args.workload, args.seed, os.path.join(tmp, "inputs"))
        ctx = Context(paths)
        meta = metadata(args.workload, args.seed)
        if args.trace:
            records, metrics, printed, extra = traced_run(qite, args, paths, tmp, ctx)
            units, title = LAYER_UNITS, "per-layer metrics (traced pass)"
        else:
            records, metrics, printed, extra = untraced_run(qite, args, paths, tmp, ctx)
            units, title = E2E_UNITS, "end-to-end metrics"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [r for r in records if r["problems"]]
    unexpected = [r for r in failed if not known_defect(r["op"], r["problems"])]
    print_ops(records)
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in extra:
        print(line)
    print(f"failed_share {len(failed) / len(records):.4f} ({len(failed)} of "
          f"{len(records)} ops; {len(failed) - len(unexpected)} are known defects, "
          f"see bench/KNOWN_DEFECTS.md)")
    print_metrics(title, metrics, units)
    print_metrics("also measured (not in the result line)", printed, PRINTED_UNITS)
    record = {"meta": meta, "metrics": {**metrics, **printed}, "ops": [
        {"pass": r["pass"], "index": r["index"], "label": r["op"].label,
         "argv": portable_argv(r["op"]), "seconds": r["seconds"], "sha256": r["sha256"],
         "problems": r["problems"]} for r in records]}
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))


def untraced_run(qite, args, paths, tmp, ctx):
    setups = setup_seconds(args.workload, args.seed, tmp)
    records, pass_times, tails = [], [], []
    pass_index = 0
    while True:
        batch = run_pass(qite, args.workload, args.seed, pass_index, paths, tmp)
        records += batch
        pass_times.append(sum(r["seconds"] for r in batch))
        tails.append(tail_latency([r["seconds"] for r in batch]))
        pass_index += 1
        if sum(pass_times) + pass_times[-1] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_records(ctx, records)
    rerun, same = rerun_identical(qite, records, args.seed)
    latencies = [r["seconds"] for r in records]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(records) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": statistics.median(t for t, _ in tails),
        "peak_rss_mb": peak_rss_mb,
    }
    pct = statistics.median(p for _, p in tails)
    printed = {}
    sims = [r for r in records if r["op"].argv[0] == "simulate"]
    if sims:
        reps = sum(int(r["op"].argv[r["op"].argv.index("--replications") + 1])
                   for r in sims)
        printed["replicates_per_s"] = reps / sum(r["seconds"] for r in sims)
    printed["failed_share"] = sum(1 for r in records if r["problems"]) / len(records)
    extra = [
        f"passes {pass_index} of {len(records) // pass_index} ops; measured "
        f"{sum(pass_times):.2f} s",
        f"latency_tail_s is the p{pct:.1f} latency of each pass ({TAIL_BEYOND} ops "
        f"beyond it of {len(records) // pass_index}), median over passes",
        "set-up probes (s): " + " ".join(f"{t:.3f}" for t in setups),
        f"rerun #{rerun['index']} ({rerun['op'].label}) "
        + ("byte-identical" if same else "NOT byte-identical"),
    ]
    return records, metrics, printed, extra


def traced_run(qite, args, paths, tmp, ctx):
    from tracing import Tracer, layer_metrics
    plain = run_pass(qite, args.workload, args.seed, 0, paths, tmp)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(qite, args.workload, args.seed, 0, paths, tmp, tracer)
    finally:
        tracer.uninstall()
    check_records(ctx, plain)
    check_records(ctx, traced)
    for a, b in zip(plain, traced):
        if a["sha256"] != b["sha256"]:
            b["problems"].append("tracing changed the JSON output")
    spans = tracer.spans()
    layers = layer_metrics(spans, tracer.counters())
    untraced_s = sum(r["seconds"] for r in plain)
    traced_s = sum(r["seconds"] for r in traced)
    layers["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    metrics = {name: layers[name] for name in LAYER_UNITS}
    printed = {name: layers[name] for name in LAYER_PRINTED_UNITS}
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json.gz")
    with gzip.open(span_file, "wt") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "op", "thread"],
                   "spans": [list(s) for s in spans]}, fh)
    self_s = {n: v for n, v in layers.items()
              if n.endswith("_s") and n != "simulate.replicate_s"}
    total = sum(self_s.values())
    extra = [f"untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s; "
             f"{len(spans)} spans written to {os.path.relpath(span_file, ROOT)}",
             "self-time shares of the traced pass (thread-seconds): " + ", ".join(
                 f"{n} {v / total:.1%}" for n, v in sorted(self_s.items()) if v > 0)]
    if tracer.missing:
        extra.append("hooks not installed (names absent): " + ", ".join(tracer.missing))
    return plain + traced, metrics, printed, extra


def run_all(args):
    """Every workload in its own interpreter; prints their metric lines."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: {workload} failed: {proc.stderr.strip()}")
        print(f"== {workload}")
        for line in lines[:-1]:
            if not line.startswith("op "):
                print(line)
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.setup_probe:
        setup_probe(args)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
