#!/usr/bin/env python3
"""Benchmark regression guard for CI's bench-smoke job.

Compares a fresh google-benchmark JSON dump against the committed baseline
(BENCH_scale.json) and fails when:

* any benchmark shared by both files got more than THRESHOLD times slower;
* any baseline benchmark selected by --filter (all of them without a
  filter) is MISSING from the fresh run — a renamed or silently dropped
  benchmark must fail loudly, not shrink the guard's coverage.

Two context checks run first:

* `rica_build_type` must read "release" — a debug rica build makes every
  number meaningless, so that is a hard failure (the custom main() in
  bench/micro_bench.cpp stamps the field from NDEBUG);
* `library_build_type` is the google-benchmark library's own build flavor;
  a debug library only skews timings slightly, so it just warns (distro
  libbenchmark packages are routinely debug builds).

Baseline numbers were recorded on a 4-CPU host (its context block says which);
CI runners differ, so the threshold is deliberately loose (catching 1.5x
cliffs, not 5% drift).

Usage: check_bench_regression.py <fresh.json> [baseline.json]
                                 [--filter REGEX]

--filter mirrors the --benchmark_filter the fresh run used, so the
missing-row check only demands the baselines that run was asked to produce.
"""

import json
import re
import sys

THRESHOLD = 1.5


def rows(doc):
    out = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were used.
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = (b["real_time"], b["time_unit"])
    return out


def parse_args(argv):
    positional = []
    bench_filter = None
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--filter":
            if i + 1 >= len(argv):
                print("FAIL: --filter needs a regex argument", file=sys.stderr)
                return None
            bench_filter = argv[i + 1]
            i += 2
        elif arg.startswith("--filter="):
            bench_filter = arg.split("=", 1)[1]
            i += 1
        else:
            positional.append(arg)
            i += 1
    if not positional:
        print(__doc__.strip(), file=sys.stderr)
        return None
    fresh = positional[0]
    base = positional[1] if len(positional) > 1 else "BENCH_scale.json"
    return fresh, base, bench_filter


def main(argv):
    args = parse_args(argv)
    if args is None:
        return 2
    fresh_path, base_path, bench_filter = args
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(base_path) as f:
        base = json.load(f)

    ctx = fresh.get("context", {})
    rica_build = ctx.get("rica_build_type", "unknown")
    if rica_build != "release":
        print(
            f"FAIL: benchmark binary built as '{rica_build}' "
            "(need a Release build: assertions and -O0 invalidate timings)"
        )
        return 1
    if ctx.get("library_build_type") == "debug":
        print(
            "WARN: google-benchmark library is a debug build "
            "(timings skew slightly; the distro package is usually to blame)"
        )

    fresh_rows = rows(fresh)
    base_rows = rows(base)

    # Every baseline row the filter selects must appear in the fresh run:
    # a benchmark that was renamed or dropped would otherwise silently fall
    # out of the guard while CI kept reporting green.
    pattern = re.compile(bench_filter) if bench_filter else None
    expected = sorted(
        name for name in base_rows
        if pattern is None or pattern.search(name)
    )
    missing = [name for name in expected if name not in fresh_rows]
    if missing:
        sel = f"matching --filter '{bench_filter}'" if bench_filter else \
            "in the baseline"
        print(f"FAIL: {len(missing)} committed baseline benchmark(s) {sel} "
              f"missing from the fresh run ({fresh_path}):")
        for name in missing:
            print(f"  missing: {name}")
        print(
            "A renamed or dropped benchmark must be re-recorded in "
            f"{base_path} (or the CI filter updated), not silently skipped."
        )
        return 1

    shared = sorted(set(fresh_rows) & set(base_rows))
    if not shared:
        print("FAIL: no benchmark names shared with the baseline "
              f"({base_path}) — wrong filter or stale baseline?")
        return 1

    failures = []
    for name in shared:
        new_t, new_u = fresh_rows[name]
        old_t, old_u = base_rows[name]
        if new_u != old_u:
            print(f"WARN: {name}: unit changed {old_u} -> {new_u}; skipped")
            continue
        ratio = new_t / old_t if old_t > 0 else float("inf")
        flag = "FAIL" if ratio > THRESHOLD else "  ok"
        print(f"{flag}: {name}: {old_t:.1f} -> {new_t:.1f} {new_u} "
              f"({ratio:.2f}x)")
        if ratio > THRESHOLD:
            failures.append(name)

    if failures:
        print(
            f"\n{len(failures)} benchmark(s) regressed past {THRESHOLD}x the "
            f"committed baseline ({base_path}). If the slowdown is intended, "
            "re-record the baseline from a Release build and commit it."
        )
        return 1
    print(f"\nAll {len(shared)} shared benchmarks within {THRESHOLD}x of "
          "baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
