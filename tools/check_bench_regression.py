#!/usr/bin/env python3
"""CI gate for cached-serve and mutation-path performance.

Reads a fresh bench JSON snapshot (the bench_json.h schema:
{"benchmarks": [{"name", "real_ns", ..., <counters>}]}) and enforces
the contracts that are meaningful *within the same run* — the only
comparison robust across machines and runner load. Which gates fire
depends on which benchmarks the snapshot contains:

bench_service snapshots (BM_ServeCached/* present):
1. Per size N, BM_ServeCold/N must cost at least COLD_RATIO (3.0) x
   BM_ServeCached/N: the plan-cache contract — a cached
   hit skips the O(||D||) preprocessing and runs only the VM cursor.
   (BENCH_PR4.json records 9.0x, 7.7x and 8.0x; the gate keeps headroom
   for noisy runners.)

bench_yannakakis snapshots (BM_HashIndexProbe* / BM_SemijoinSweep*
present, --baseline BENCH_PR4.json given):
2. Every probe and semijoin-sweep fixture must hold --speedup x
   (default 2.0) over the recorded PR 4 flat-data-plane numbers — the
   PR 9 tag-probed columnar plane contract. Absolute ns against a
   committed baseline, so treat cross-machine runs with care: the
   BENCH_PR4/BENCH_PR9 numbers come from the same recording machine,
   and CI applies a reduced floor for runner-speed headroom.

bench_semiring snapshots (BM_ServeCountCounting* present):
3. Per size N and non-counting instance S, BM_ServeCountS/N must stay
   within --semiring-ratio (default 1.3x) of BM_ServeCountCounting/N:
   the PR 10 contract that generalizing the count DP to arbitrary
   semirings costs the cached-serve path nothing. Same-run ratio.
   Counting is a memoized hit like the other semirings (one plan-cache
   entry memoizes every count-verb aggregate), so every row measures
   the same memo read and the ratios sit near 1.

bench_mutation snapshots (BM_IndexDeltaBuild* present):
4. Per (rows, batch) point with batch <= --small-batch (default 16),
   BM_IndexDeltaBuild/rows/batch must beat BM_IndexFullRebuild at the
   same point by at least --delta-ratio (default 3x; the recorded
   BENCH_PR8.json medians sit at 5x+ for batch=1 — the CI gate keeps
   headroom for noisy runners).
5. Every BM_ServeUnderMutation point with queries_per_mutation > 0
   must report hit_rate >= 0.5: mutations of R may retire only the
   plans over R, so the 3:1 stable-relation traffic mix must keep
   hitting its cached plan (selective invalidation, not a cache wipe).

With --baseline BENCH_PR*.json (schema: suites[].benchmarks[] with the
recorded "after_real_ns"), additionally diffs absolute numbers against
the recorded baseline — a cross-run drift tripwire for local use on the
machine that recorded the baseline; too load-sensitive for shared CI
runners. Names match exactly (BENCH_PR4.json, BENCH_PR7.json and
BENCH_PR8.json record BM_ServeCached, BM_ServeCachedCount and the
bench_mutation names verbatim), and BM_ServeCached/N also maps onto
the BENCH_PR7.json BM_ServeCachedRows/N entries.

Usage:
  tools/check_bench_regression.py --current build/bench_service.json \
      [--baseline BENCH_PR7.json]
  tools/check_bench_regression.py --current build/bench_mutation.json \
      [--delta-ratio 3.0] [--baseline BENCH_PR8.json]
"""

import argparse
import json
import sys

# Minimum BM_ServeCold/N over BM_ServeCached/N at every size (gate 1).
COLD_RATIO = 3.0


def load_baseline(path):
    """name -> after_real_ns from a BENCH_PR*.json baseline."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for suite in doc.get("suites", []):
        for b in suite.get("benchmarks", []):
            if "after_real_ns" in b:
                out[b["name"]] = float(b["after_real_ns"])
    return out


def load_current(path):
    """name -> full benchmark entry from a bench_json.h snapshot."""
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: b for b in doc.get("benchmarks", [])}


def real_ns(current, name):
    return float(current[name]["real_ns"])


def baseline_candidates(name):
    """Baseline entries a current benchmark may diff against, in order.

    Exact match first (BENCH_PR4.json records BM_ServeCached,
    BENCH_PR7.json BM_ServeCachedCount, BENCH_PR8.json the
    bench_mutation names). BENCH_PR7.json records the cached rows
    request as BM_ServeCachedRows.
    """
    cands = [name]
    if name.startswith("BM_ServeCached/"):
        cands.append("BM_ServeCachedRows/" + name[len("BM_ServeCached/"):])
    return cands


def suffixes(current, prefix):
    """Sorted arg suffixes ("1000", "10000/16", "8/real_time") under prefix."""
    return sorted((n[len(prefix):] for n in current if n.startswith(prefix)),
                  key=lambda s: tuple(int(x) if x.isdigit() else x
                                      for x in s.split("/")))


def check_serve(current, failures):
    """1: a cached hit must beat a cold prepare by COLD_RATIO."""
    for size in suffixes(current, "BM_ServeCached/"):
        cached = real_ns(current, f"BM_ServeCached/{size}")
        if f"BM_ServeCold/{size}" not in current:
            failures.append(f"missing BM_ServeCold/{size}")
            continue
        cold = real_ns(current, f"BM_ServeCold/{size}")
        ratio = cold / cached if cached > 0 else float("inf")
        verdict = "ok" if ratio >= COLD_RATIO else "CACHE TOO SLOW"
        print(f"serve /{size}: cold {cold:.0f} ns vs cached {cached:.0f} ns"
              f"  ratio {ratio:.2f}x (floor {COLD_RATIO:.2f}x)  {verdict}")
        if ratio < COLD_RATIO:
            failures.append(
                f"cached serve only {ratio:.2f}x faster than cold at /{size}"
                f": {cached:.0f} ns vs {cold:.0f} ns "
                f"(required {COLD_RATIO:.1f}x)")


DATA_PLANE_PREFIXES = ("BM_HashIndexProbe/", "BM_SemijoinSweep/")


def check_data_plane(current, baseline, speedup, failures):
    """2: tag-probed probe/sweep fixtures vs the PR 4 recorded plane."""
    points = [n for n in sorted(current) if n.startswith(DATA_PLANE_PREFIXES)]
    gated = 0
    for name in points:
        if name not in baseline:
            print(f"data-plane {name}: no baseline entry  (not gated)")
            continue
        gated += 1
        ns = float(current[name]["real_ns"])
        ratio = baseline[name] / ns if ns > 0 else float("inf")
        verdict = "ok" if ratio >= speedup else "TOO SLOW"
        print(f"data-plane {name}: {ns:.0f} ns vs PR4 {baseline[name]:.0f} ns"
              f"  speedup {ratio:.2f}x (floor {speedup:.2f}x)  {verdict}")
        if ratio < speedup:
            failures.append(
                f"{name}: only {ratio:.2f}x over the PR4 baseline "
                f"({ns:.0f} ns vs {baseline[name]:.0f} ns, "
                f"required {speedup:.1f}x)")
    if gated == 0:
        failures.append("no probe/sweep fixtures matched the baseline")


SEMIRING_SERVE_PREFIX = "BM_ServeCountCounting/"
SEMIRING_VARIANTS = ("Boolean", "MinPlus", "MaxMin", "TopK")


def check_semiring(current, semiring_ratio, failures):
    """3: every semiring's cached count serve vs the counting one."""
    for size in suffixes(current, SEMIRING_SERVE_PREFIX):
        base = real_ns(current, f"{SEMIRING_SERVE_PREFIX}{size}")
        for variant in SEMIRING_VARIANTS:
            name = f"BM_ServeCount{variant}/{size}"
            if name not in current:
                failures.append(f"missing {name}")
                continue
            ns = real_ns(current, name)
            ratio = ns / base if base > 0 else float("inf")
            verdict = "ok" if ratio <= semiring_ratio else "TOO SLOW"
            print(f"semiring {variant} /{size}: {ns:.0f} ns vs counting "
                  f"{base:.0f} ns  ratio {ratio:.2f}x "
                  f"(ceiling {semiring_ratio:.2f}x)  {verdict}")
            if ratio > semiring_ratio:
                failures.append(
                    f"{name}: {ratio:.2f}x the counting serve "
                    f"({ns:.0f} ns vs {base:.0f} ns, "
                    f"allowed {semiring_ratio:.2f}x)")


def check_mutation(current, delta_ratio, small_batch, failures):
    # 4: delta maintenance must beat a full rebuild on small batches.
    points = suffixes(current, "BM_IndexDeltaBuild/")
    if not points:
        failures.append("no BM_IndexDeltaBuild/* entries in snapshot")
    for point in points:
        rows, batch = (int(x) for x in point.split("/"))
        delta = real_ns(current, f"BM_IndexDeltaBuild/{point}")
        if f"BM_IndexFullRebuild/{point}" not in current:
            failures.append(f"missing BM_IndexFullRebuild/{point}")
            continue
        rebuild = real_ns(current, f"BM_IndexFullRebuild/{point}")
        ratio = rebuild / delta if delta > 0 else float("inf")
        gated = batch <= small_batch
        verdict = "ok" if (not gated or ratio >= delta_ratio) else "TOO SLOW"
        print(f"delta {rows} rows, batch {batch}: delta {delta:.0f} ns vs "
              f"rebuild {rebuild:.0f} ns  ratio {ratio:.2f}x"
              f"{'' if gated else '  (not gated)'}  {verdict}")
        if gated and ratio < delta_ratio:
            failures.append(
                f"DeltaBuild only {ratio:.2f}x faster than a full rebuild "
                f"at {rows} rows / batch {batch} "
                f"(required {delta_ratio:.1f}x)")

    # 5: serving under mutation must keep the untouched-relation cache.
    for arg in suffixes(current, "BM_ServeUnderMutation/"):
        entry = current[f"BM_ServeUnderMutation/{arg}"]
        qpm = entry.get("queries_per_mutation", 0.0)
        hit_rate = entry.get("hit_rate")
        if hit_rate is None:
            failures.append(f"BM_ServeUnderMutation/{arg} lacks a hit_rate "
                            "counter")
            continue
        verdict = "ok"
        if qpm > 0 and hit_rate < 0.5:
            verdict = "CACHE WIPED"
            failures.append(
                f"BM_ServeUnderMutation/{arg}: hit rate {hit_rate:.2f} under "
                f"mutation (selective invalidation should keep the stable "
                f"relation's plans cached)")
        print(f"serve-under-mutation qpm={qpm:.0f}: hit rate {hit_rate:.2f}  "
              f"{verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", required=True)
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="allowed slowdown vs --baseline (0.10 = +10%%)")
    ap.add_argument("--delta-ratio", type=float, default=3.0,
                    help="minimum DeltaBuild-vs-rebuild speedup at small "
                         "batches (recorded medians are 5x+; the default "
                         "keeps headroom for noisy runners)")
    ap.add_argument("--small-batch", type=int, default=16,
                    help="largest batch size the --delta-ratio gate "
                         "applies to")
    ap.add_argument("--semiring-ratio", type=float, default=1.3,
                    help="maximum cached-serve latency of a non-counting "
                         "semiring count relative to the counting one; "
                         "both are memoized hits (the PR 10 contract)")
    ap.add_argument("--baseline", default=None,
                    help="optional BENCH_PR*.json for an absolute-number "
                         "drift check (local use)")
    ap.add_argument("--speedup", type=float, default=2.0,
                    help="minimum probe/semijoin speedup over the "
                         "--baseline (BENCH_PR4) numbers; the PR 9 "
                         "data-plane gate")
    args = ap.parse_args()

    current = load_current(args.current)
    failures = []

    has_serve = any(n.startswith("BM_ServeCached/") for n in current)
    has_mutation = any(n.startswith("BM_IndexDeltaBuild/") for n in current)
    has_data_plane = any(n.startswith(DATA_PLANE_PREFIXES) for n in current)
    has_semiring = any(n.startswith(SEMIRING_SERVE_PREFIX) for n in current)
    if has_serve:
        check_serve(current, failures)
    if has_mutation:
        check_mutation(current, args.delta_ratio, args.small_batch, failures)
    if has_semiring:
        check_semiring(current, args.semiring_ratio, failures)
    if has_data_plane and args.baseline:
        check_data_plane(current, load_baseline(args.baseline), args.speedup,
                         failures)
    if not (has_serve or has_mutation or has_data_plane or has_semiring):
        failures.append("no BM_ServeCached/*, BM_IndexDeltaBuild/*, "
                        "BM_HashIndexProbe/*, BM_SemijoinSweep/*, or "
                        "BM_ServeCountCounting/* entries in snapshot "
                        "(wrong --current file?)")

    # Optional: absolute drift vs a recorded baseline.
    if args.baseline:
        baseline = load_baseline(args.baseline)
        compared = 0
        for name, entry in sorted(current.items()):
            if name.startswith(DATA_PLANE_PREFIXES):
                continue  # Gated by check_data_plane at --speedup instead.
            base = next((c for c in baseline_candidates(name)
                         if c in baseline), None)
            if base is None:
                continue
            compared += 1
            ns = float(entry["real_ns"])
            ratio = ns / baseline[base]
            verdict = "ok" if ratio <= 1.0 + args.threshold else "DRIFT"
            print(f"baseline {name}: {ns:.0f} ns vs recorded "
                  f"{baseline[base]:.0f} ns  ratio {ratio:.2f}  {verdict}")
            if ratio > 1.0 + args.threshold:
                failures.append(
                    f"{name}: {ns:.0f} ns vs baseline {base} "
                    f"{baseline[base]:.0f} ns ({ratio:.2f}x)")
        if compared == 0:
            failures.append("no benchmarks matched the baseline")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nbench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
