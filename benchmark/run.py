#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see benchmark/README.md).

One workload, one process; the last line of stdout is the result JSON:

    python3 benchmark/run.py --workload dense-urban --seed 1 --seconds 20 --trace 0

A full set: every workload end to end (--runs times each, alternating
workloads) and once traced, each in its own process, printed as tables and,
with --out, appended to FILE as one JSON line for benchmark/compare.py:

    python3 benchmark/run.py [--seed 1] [--runs 1] [--out FILE] [--smoke]

The benchmark program, rica_bench, is built from source into .bench_build/
at the checkout root, always as a Release build.  Any failed output check,
crash or timeout makes the exit code non-zero.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "benchmark")
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_BIN = os.path.join(BUILD, "rica_bench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

BUILD_TIMEOUT_S = 840
BENCH_TIMEOUT_S = 170
SMOKE_SCALE = 20  # smoke runs divide every simulated duration by this


class BenchError(Exception):
    pass


def run(cmd, timeout, stderr=subprocess.STDOUT):
    """Runs cmd in its own process group and returns (exit code, stdout).
    On timeout it kills the whole group and waits for it, so no process
    outlives the call."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            text=True, stdout=subprocess.PIPE, stderr=stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("timed out after %d s: %s" % (timeout, cmd[0]))
    return proc.returncode, out


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    steps = [["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "rica_bench",
              "-j", str(os.cpu_count() or 1)]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        code, out = run(cmd, max(1, deadline - time.monotonic()))
        if code != 0:
            sys.stderr.write(out[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    # Mirrors scripts/check_bench_regression.py: never time a debug build.
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError("refusing a %r build of rica_core; remove %s and "
                         "rerun" % (build_type, BUILD))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(seed):
    """Host and build facts recorded with every full set."""
    compiler = cache_value("CMAKE_CXX_COMPILER") or "c++"
    try:
        code, out = run([compiler, "--version"], 30)
        compiler_version = out.splitlines()[0] if code == 0 and out else compiler
    except (OSError, BenchError):
        compiler_version = compiler
    try:
        code, out = run(["git", "rev-parse", "HEAD"], 30)
        commit = out.strip() if code == 0 else "unknown"
    except (OSError, BenchError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "compiler": compiler_version,
            "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "commit": commit, "seed": seed}


def run_bench(workload, seed, seconds, trace, scale):
    """One rica_bench process; returns its result with the load averages."""
    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()[0]
    if load_before > nproc / 2:
        sys.stderr.write("warning: 1-min load average %.2f exceeds nproc/2 = "
                         "%.1f; timings will be noisy\n" % (load_before,
                                                             nproc / 2))
    cmd = [BENCH_BIN, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--scale", str(scale)]
    code, out = run(cmd, BENCH_TIMEOUT_S, stderr=None)
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        raise BenchError("%s: rica_bench exited with code %d" % (workload,
                                                                 code))
    result = json.loads(lines[-1])
    if result.get("build_type") != "release":
        raise BenchError("rica_bench is not a Release build")
    result["load_before"] = load_before
    result["load_after"] = os.getloadavg()[0]
    return result


def print_table(title, result, out):
    out.write("%s  (attempted %d, failed %d, load %.2f -> %.2f)\n" % (
        title, result["attempted"], result["failed"], result["load_before"],
        result["load_after"]))
    for name, m in result["metrics"].items():
        spread = ""
        if m["n"] > 1:
            spread = "  median of %d, min %.6g, max %.6g" % (m["n"], m["min"],
                                                            m["max"])
        out.write("  %-28s %14.6g %-6s%s\n" % (name, m["value"], m["unit"],
                                              spread))
    for failure in result["failures"]:
        out.write("  FAILED: %s\n" % failure)


def single(args, spec):
    result = run_bench(args.workload, args.seed, args.seconds, args.trace, 1)
    names = [m["name"] for m in spec["per_layer" if args.trace else
                                      "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise BenchError("rica_bench did not report: " + ", ".join(missing))
    print_table("%s seed %d trace %d" % (args.workload, args.seed, args.trace),
                result, sys.stdout)
    line = {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {n: {"value": result["metrics"][n]["value"],
                            "unit": result["metrics"][n]["unit"]}
                        for n in names}}
    sys.stdout.write(json.dumps(line) + "\n")
    return 0 if result["correct"] else 1


def full_set(args, workloads):
    scale = SMOKE_SCALE if args.smoke else 1
    runs = 1 if args.smoke else args.runs
    seconds = 0.1 if args.smoke else args.seconds
    record = {"stamp": stamp(args.seed), "smoke": args.smoke,
              "seconds": seconds, "workloads": {}}
    for w in workloads:
        record["workloads"][w] = {"runs": [], "attempted": 0, "failed": 0,
                                  "load": []}
    ok = True
    schedule = [(w, 0) for _ in range(runs) for w in workloads]
    schedule += [(w, 1) for w in workloads]
    for w, trace in schedule:
        entry = record["workloads"][w]
        try:
            result = run_bench(w, args.seed, seconds, trace, scale)
        except BenchError as e:
            sys.stdout.write("%s: FAILED: %s\n" % (w, e))
            entry["attempted"] += 1
            entry["failed"] += 1
            ok = False
            continue
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        entry["load"].append([result["load_before"], result["load_after"]])
        ok = ok and result["correct"]
        values = {n: m["value"] for n, m in result["metrics"].items()}
        if trace:
            entry["layers"] = values
        else:
            entry["runs"].append(values)
        print_table("%s %s" % (w, "traced" if trace else "end to end"),
                    result, sys.stdout)
        sys.stdout.flush()
    for w, entry in record["workloads"].items():
        entry["fail_frac"] = entry["failed"] / max(1, entry["attempted"])
        sys.stdout.write("%s: fail_frac %.4g (%d of %d)\n" % (
            w, entry["fail_frac"], entry["failed"], entry["attempted"]))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    return 0 if ok else 1


def main(argv):
    with open(SPEC) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=1,
                   help="end-to-end runs per workload in a full set")
    p.add_argument("--out", help="append the full set's record to this file")
    p.add_argument("--smoke", action="store_true",
                   help="sim times / %d, one run per workload" % SMOKE_SCALE)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.runs < 1:
        p.error("--seconds must be > 0 and --runs >= 1")
    try:
        build()
        if args.workload:
            return single(args, spec)
        return full_set(args, workloads)
    except BenchError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
