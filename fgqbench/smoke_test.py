#!/usr/bin/env python3
"""Smoke test of fgq-bench.

    python3 fgqbench/smoke_test.py [--seconds 6]

Run from the repository root. Runs every workload of BENCHMARK.json
briefly, untraced and traced, and asserts that each run's output checks
passed, that no operation failed (failed_frac = failed / attempted = 0),
that every process the run reports on was valid, and that every metric
BENCHMARK.json names is emitted with its unit.
Exits nonzero on the first violation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seconds):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", "1",
                        "--seconds", str(seconds), "--trace", trace],
                       cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {r.returncode}")
    lines = r.stdout.strip().splitlines()
    contexts = [json.loads(line)["context"] for line in lines[:-1]]
    return contexts, json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=6)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {"0": bench["end_to_end"], "1": bench["per_layer"]}
    for w in bench["workloads"]:
        for trace, metrics in expected.items():
            contexts, res = run(w["name"], trace, a.seconds)
            tag = f"{w['name']} trace={trace}"
            assert contexts, f"{tag}: no context line"
            assert all(c["valid"] for c in contexts), (
                f"{tag}: a reported process was not valid")
            assert res["correct"], f"{tag}: output checks failed"
            assert res["attempted"] > 0, f"{tag}: nothing attempted"
            assert res["failed"] == 0, (
                f"{tag}: failed_frac = {res['failed']}/{res['attempted']}")
            got = res["metrics"]
            for m in metrics:
                assert m["name"] in got, f"{tag}: {m['name']} missing"
                assert got[m["name"]]["unit"] == m["unit"], (
                    f"{tag}: {m['name']} in {got[m['name']]['unit']}, "
                    f"expected {m['unit']}")
            extra = set(got) - {m["name"] for m in metrics}
            assert not extra, f"{tag}: unlisted metrics {sorted(extra)}"
            print(f"ok  {tag}: {len(got)} metrics, "
                  f"{res['attempted']} operations, 0 failed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
