#!/usr/bin/env python3
"""Runs one recap benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload infer|sweep|automata --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the recap library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, under the
checkout root. Every repetition of a workload runs in a fresh
single-threaded worker process, so the process-wide compile memo starts
cold each time, as it does for a user's run.

--trace 0: at least two repetitions, more while the next one fits in
--seconds. run_s (and maccess_per_s) come from the fastest repetition;
set-up time and memory are medians. The last line of stdout is one JSON
object with the end-to-end metrics.

--trace 1: one untraced and one traced repetition of the workload,
whose outputs and loads must be identical, and one traced repetition of
each other workload. For infer, the untraced repetition calls
inferMachine and the traced one its stages, so this also checks the
staged copy against the program. The JSON carries the per-layer
metrics summed over the three traced repetitions, and the tracing
overhead (traced minus untraced run_s of the named workload).

Exits 1 when an output check fails (after printing the JSON) and 2 when
the benchmark cannot run at all (no result printed).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("infer", "sweep", "automata")

# Repetitions per --trace 0 run, at least; more start while they fit in
# --seconds. The host's speed drifts by up to 1.8x in phases of 10-30 s,
# and contention only ever adds time, so run_s is the fastest
# repetition: its spread over seeds is a fraction of the median's.
MIN_REPETITIONS = 2
WORKER_TIMEOUT_S = 170

# Per-layer metrics: span totals (ms) and counters, summed over the
# traced repetitions of all three workloads, then the derived ratios.
SPAN_METRICS = (
    "hw.build", "infer.geometry", "infer.adaptive", "infer.perm_level",
    "infer.search_level", "policy.compile", "infer.equiv", "trace.gen",
    "eval.batch", "eval.kernel", "eval.opt", "eval.predict", "hier.run",
    "sec.evict", "sec.stealth", "sec.observe", "learn.lstar")
COUNTER_METRICS = (
    "infer.geometry_loads", "infer.adaptive_loads", "infer.level_loads",
    "infer.level_experiments", "policy.compile_states",
    "infer.equiv_states", "sec.configs_explored",
    "learn.membership_words", "learn.equivalence_words",
    "query.accesses")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(target):
    """Configures once, then builds the CMake target; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no recap sources at", ROOT / "src")
        return False
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_worker(args):
    """One worker process; returns its JSON result or None."""
    cmd = [str(build_dir() / "perfbench_worker")] + args
    start = time.monotonic()
    cmd += ["--start", repr(start)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: worker timed out:", " ".join(args))
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("perfbench: worker failed with code", proc.returncode)
        return None
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def check_reps(reps, what="repetitions of one seed"):
    """True when every repetition passed and all agree on the outputs."""
    ok = True
    for rep in reps:
        for failure in rep["failures"]:
            log("FAILED:", failure)
        ok = ok and rep["exit_code"] == 0 and rep["failed"] == 0
    if len({(r["digest"], r["loads"]) for r in reps}) != 1:
        log(f"FAILED: {what} disagree on their outputs or loads")
        ok = False
    return ok


def measure(workload, seed, seconds):
    args = ["--workload", workload, "--seed", str(seed)]
    begin = time.monotonic()
    reps = []
    while True:
        rep_begin = time.monotonic()
        rep = run_worker(args)
        if rep is None:
            return None
        reps.append(rep)
        now = time.monotonic()
        if (len(reps) >= MIN_REPETITIONS and
                now - begin + (now - rep_begin) > seconds):
            break
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    best = min(reps, key=lambda r: r["run_s"])
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "run_s": (best["run_s"], "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"]
                                           for r in reps), "MiB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "loads": (best["loads"], "count"),
        "maccess_per_s": (best["loads"] / best["run_s"] / 1e6, "Macc/s"),
    }
    log(f"{workload} seed {seed}: {len(reps)} repetitions, run_s "
        + " ".join(f"{r['run_s']:.3f}" for r in reps))
    return check_reps(reps), attempted, failed, metrics


def layer_metrics(reps):
    spans, counters = {}, {}
    for rep in reps:
        for name, span in rep["spans"].items():
            spans[name] = spans.get(name, 0.0) + span["total_ms"]
        for name, value in rep["counters"].items():
            counters[name] = counters.get(name, 0.0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    def count(name):
        return counters.get(name, 0.0)

    metrics = {f"{name}_ms": (spans.get(name, 0.0), "ms")
               for name in SPAN_METRICS}
    metrics.update({name: (count(name), "count")
                    for name in COUNTER_METRICS})
    metrics["policy.compile_over_budget_ratio"] = (ratio(
        count("policy.compile_over_budget"),
        count("policy.compile_requests")), "ratio")
    metrics["infer.equiv_ratio"] = (ratio(
        count("infer.equiv_equivalent"), count("infer.equiv_pairs")),
        "ratio")
    metrics["eval.batch_maccess_per_s"] = (ratio(
        count("eval.batch_accesses"),
        spans.get("eval.batch", 0.0) * 1e3), "Macc/s")
    metrics["hier.maccess_per_s"] = (ratio(
        count("hier.accesses"), spans.get("hier.run", 0.0) * 1e3),
        "Macc/s")
    return metrics


def measure_traced(workload, seed):
    """The workload untraced and traced, plus the other two traced, so
    every per-layer metric comes from the workload that exercises it."""
    args = ["--workload", workload, "--seed", str(seed)]
    plain = run_worker(args)
    if plain is None:
        return None
    traced = []
    for name in [workload] + [w for w in WORKLOADS if w != workload]:
        trace_file = build_dir() / f"trace-{name}-{seed}.json"
        rep = run_worker(["--workload", name, "--seed", str(seed),
                          "--trace", "1", "--trace-file", str(trace_file)])
        if rep is None:
            return None
        traced.append(rep)
        log(f"{name}: traced run {rep['run_s']:.3f} s, spans in "
            f"{trace_file}")
    correct = check_reps([plain, traced[0]],
                         "the untraced and traced runs")
    correct = all([check_reps([rep]) for rep in traced[1:]]) and correct
    metrics = layer_metrics(traced)
    metrics["tracing.overhead_s"] = (traced[0]["run_s"] - plain["run_s"],
                                     "s")
    log(f"{workload}: untraced run {plain['run_s']:.3f} s")
    attempted = plain["attempted"] + sum(r["attempted"] for r in traced)
    failed = plain["failed"] + sum(r["failed"] for r in traced)
    return correct, attempted, failed, metrics


def selftest():
    if not build("perfbench_selftest"):
        return 2
    selftest_bin = build_dir() / "perfbench_selftest"
    return subprocess.run([str(selftest_bin)]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    opts = parser.parse_args()
    if opts.selftest:
        return selftest()
    if opts.workload is None:
        parser.error("--workload is required")
    if not build("perfbench_worker"):
        log("perfbench: build failed")
        return 2

    if opts.trace:
        outcome = measure_traced(opts.workload, opts.seed)
    else:
        outcome = measure(opts.workload, opts.seed, opts.seconds)
    if outcome is None:
        return 2
    correct, attempted, failed, metrics = outcome
    for name, (value, unit) in metrics.items():
        log(f"  {name:34s} {value:>18.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
