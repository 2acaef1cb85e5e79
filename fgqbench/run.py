#!/usr/bin/env python3
"""fgq-bench entry point.

    python3 fgqbench/run.py --workload hot-read --seed 1 --seconds 30 --trace 0

Run from the repository root. Configures and builds fgq_bench (the fgq
library from src/ plus fgqbench/src) under .bench_build/fgqbench, runs one
workload, and prints each fgq_bench process's context line and, last, the
result JSON. Build output goes to stderr. Exits nonzero, printing no
result, when the build or a run fails.

An untraced run splits --seconds over PROCESSES fgq_bench processes. Each
end-to-end metric is a quantile of per-slice, per-pass or per-set-up
samples (the 10th percentile of the wire slices, the median otherwise);
the run pools the samples of all its processes and takes that quantile
of the pool, so a process that spent its life in one of the host's slow
spells weighs only as much as its samples. A traced run is one process.

A process whose context line says it is not valid (its open-loop
generator fell behind, so its tail measures the generator) is reported on
stderr and replaced by another, at most RETRIES times; when that is not
enough the run fails. Only the valid processes' context lines are printed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fgqbench")
BINARY = os.path.join(BUILD, "fgq_bench")
PROCESSES = 3
RETRIES = 2
# A run measures --seconds of traffic plus set-up and checks; anything
# near this is a hang.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *gen,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "fgq_bench"], check=True, stdout=sys.stderr)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def run_process(a, seconds, sha, deadline):
    """One fgq_bench process; returns (context line, result dict)."""
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(seconds), "--trace", a.trace,
           "--out-dir", os.path.join(BUILD, "out"), "--commit", sha]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) != 2:
        sys.stderr.write(r.stdout)
        raise RuntimeError(f"fgq_bench exited with {r.returncode}")
    return lines[0], json.loads(lines[-1])


def quantile(values, q):
    """Nearest-rank quantile, as fgq_bench takes it."""
    v = sorted(values)
    return v[min(len(v) - 1, int(q * (len(v) - 1) + 0.5))]


def merge(results):
    """Pools each sampled metric's samples over processes and takes its
    quantile of them; any other metric is the median over processes.
    Counts add up."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        per_proc = [r["metrics"][name] for r in results]
        if "samples" in m:
            pooled = [x for pm in per_proc for x in pm["samples"]]
            value = quantile(pooled, m["quantile"])
        else:
            value = statistics.median(pm["value"] for pm in per_proc)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"fgq-bench: build failed: {e}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    procs = 1 if a.trace == "1" else PROCESSES
    sha = commit()
    contexts, results = [], []
    try:
        for _ in range(procs + RETRIES):
            ctx, res = run_process(a, a.seconds / procs, sha, deadline)
            if not json.loads(ctx)["context"]["valid"]:
                print(f"fgq-bench: dropped invalid process: {ctx}",
                      file=sys.stderr)
                continue
            contexts.append(ctx)
            results.append(res)
            if len(results) == procs:
                break
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.TimeoutExpired) as e:
        print(f"fgq-bench: run failed: {e}", file=sys.stderr)
        return 1
    if len(results) < procs:
        print(f"fgq-bench: run failed: only {len(results)} of {procs} "
              "processes valid", file=sys.stderr)
        return 1
    for line in contexts:
        print(line)
    print(json.dumps(merge(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
