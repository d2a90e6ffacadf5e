#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig_grid --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the simulator libraries from src/ plus the lrs_bench
harness) into .bench_build/perfbench, runs one workload, checks every
cell's result digest, and prints the harness report (provenance, cell
digests) followed by the result line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(spans go to .bench_build/spans/<workload>.trace.json). --workload all
runs every workload in one process and prefixes each metric with its
workload. --len and --perturb exist for the benchmark's own tests.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "lrs_bench"
WORKLOADS = ("fig_grid", "dense_cell", "sparse_cell")
# Set-up is a few milliseconds, so one run launches the harness this
# many extra times, stopping each at its first cell, and reports the
# median.
SETUP_PROBES = 20
# Compiler and harness temporaries stay inside the checkout.
TMP = ROOT / ".bench_build" / "tmp"
ENV = dict(os.environ, TMPDIR=str(TMP))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)
    TMP.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=ENV)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr, env=ENV)


def harness(args, extra, timeout):
    """Run lrs_bench; returns its JSON report lines."""
    t0 = time.monotonic_ns()
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--pins", str(HERE / "pins.json"),
           "--t0-ns", str(t0)] + extra
    if args.len:
        cmd += ["--len", str(args.len)]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                         check=True, text=True, env=ENV).stdout
    return [json.loads(line) for line in out.splitlines() if line]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--len", type=int, default=0,
                    help="uops per cell (default: per workload)")
    ap.add_argument("--perturb", default="",
                    help="cell key whose second repeat gets one counter "
                         "bumped (tests the correctness check)")
    args = ap.parse_args()
    if args.seed < 1:
        ap.error("--seed must be at least 1")

    build()
    work = ROOT / ".bench_build" / "run" / f"{args.workload}-{os.getpid()}"
    spans = ROOT / ".bench_build" / "spans"
    work.mkdir(parents=True, exist_ok=True)
    spans.mkdir(parents=True, exist_ok=True)
    try:
        extra = ["--work-dir", str(work)]
        setups = []
        if args.trace == 0 and args.workload != "all":
            for _ in range(SETUP_PROBES):
                probe = harness(args, extra + ["--setup-only"], 60)
                setups.append(probe[-1]["setup_s"])
        if args.trace:
            extra += ["--spans-dir", str(spans)]
        reports = harness(args, extra, args.seconds + 120)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for rep in reports:
        print(json.dumps(rep))
        m = dict(rep["metrics"])
        if args.trace == 0:
            m["setup_s"] = {"value": statistics.median(
                setups + [rep["setup_s"]]), "unit": "s"}
        prefix = rep["workload"] + "." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
