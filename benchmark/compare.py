#!/usr/bin/env python3
"""Compares benchmark result sets from a parent commit and a change.

    python3 benchmark/compare.py PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]

Each file holds records appended by `benchmark/run.py --out FILE`.  Run i of
the parent is paired with run i of the change, so make the runs
alternately on the two commits (README.md shows the loop).  For every
workload and end-to-end metric, with the bound BENCHMARK.json fixes:

* unresolved: the parent's interquartile spread, as a share of its median,
  exceeds the bound, and not every change run beats every parent run;
* regression: the change's median is worse than the parent's by more than
  the bound;
* gain: at least 10 pairs, the change wins at least 9 in 10 of them (ties
  count for neither), and the medians differ by more than the parent's
  interquartile spread;
* otherwise: no change.

A rise in the share of runs that failed (fail_frac) fails the comparison.
Exits 1 on any regression or fail_frac rise, else 0.  Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    """{workload: {"runs": [{metric: value}], "attempted": n, "failed": n}}
    over every record of a result file."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            for name, w in json.loads(line)["workloads"].items():
                acc = out.setdefault(name, {"runs": [], "attempted": 0,
                                            "failed": 0})
                acc["runs"].extend(w["runs"])
                acc["attempted"] += w["attempted"]
                acc["failed"] += w["failed"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(parent, change, better, bound):
    """Verdict on one metric from paired run values (lists, in run order)."""
    sign = 1.0 if better == "lower" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    every_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if p_med and spread / abs(p_med) > bound and not every_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and abs(c_med - p_med) > spread):
        verdict = "gain"
    else:
        verdict = "no change"
    return {"verdict": verdict, "parent": p_med, "change": c_med,
            "spread": spread, "worse_by": worse_by, "wins": wins,
            "pairs": len(pairs)}


def compare(parent, change, spec):
    """Rows of (workload, metric, judgement) and the fail_frac failures."""
    rows = []
    failures = []
    for workload in sorted(set(parent) & set(change)):
        p, c = parent[workload], change[workload]
        p_frac = p["failed"] / max(1, p["attempted"])
        c_frac = c["failed"] / max(1, c["attempted"])
        if c_frac > p_frac:
            failures.append("%s: fail_frac rose from %.4g to %.4g" % (
                workload, p_frac, c_frac))
        for m in spec["end_to_end"]:
            pv = [r[m["name"]] for r in p["runs"] if m["name"] in r]
            cv = [r[m["name"]] for r in c["runs"] if m["name"] in r]
            if not pv or not cv:
                continue
            rows.append((workload, m["name"],
                         judge(pv, cv, m["better"], m["bound"])))
    return rows, failures


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default=os.path.join(os.path.dirname(here),
                                                   "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    rows, failures = compare(load_runs(args.parent), load_runs(args.change),
                             spec)
    print("%-16s %-13s %12s %12s %10s %8s %6s  %s" % (
        "workload", "metric", "parent", "change", "iqr", "worse", "wins",
        "verdict"))
    for workload, metric, j in rows:
        print("%-16s %-13s %12.6g %12.6g %10.4g %7.2f%% %3d/%-2d  %s" % (
            workload, metric, j["parent"], j["change"], j["spread"],
            100 * j["worse_by"], j["wins"], j["pairs"], j["verdict"]))
    for failure in failures:
        print("FAIL: " + failure)
    regressed = any(j["verdict"] == "regression" for _, _, j in rows)
    return 1 if regressed or failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
