#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload dense1k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds a Release
tree of the simulator and the benchmark in .bench_build/ (never the tier-1
build/ tree); later calls only rebuild what changed. The benchmark's own
output is passed through, and its last line, one JSON object, is checked
against BENCHMARK.json: --trace 0 must report exactly the end_to_end metrics
and --trace 1 exactly the per_layer metrics, each with its declared unit.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
WORKLOADS = ("dense1k", "city_mobile", "paper_sweep")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the Release tree; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j2"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Returns a list of ways the result line breaks the BENCHMARK.json contract."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
        return errors
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name in sorted(set(want) - set(got)):
        errors.append(f"metric {name} missing")
    for name in sorted(set(got) - set(want)):
        errors.append(f"metric {name} not declared in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            errors.append(f"metric {name} has unit {got[name]}, declared {want[name]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    return errors


def run_benchmark(workload, seed, seconds, trace):
    """Runs one measurement; returns (exit code, parsed result or None)."""
    binary = os.path.join(BUILD, "perfbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed % 2**64),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(f"benchmark exited with {done.returncode} and no result")
        return 1, None
    result = json.loads(lines[-1])
    errors = check_result(result, trace)
    if errors:
        for e in errors:
            log(e)
        return 1, None
    print("\n".join(lines[:-1]), flush=True)
    return 0, result


def selftest():
    """Unit tests of the benchmark machinery, then every workload at length 1."""
    tests = subprocess.run([os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT)
    if tests.returncode != 0:
        return tests.returncode
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_benchmark(workload, 1, 1, trace)
            if code != 0:
                return code
            if not result["correct"] or result["failed"] != 0:
                log(f"{workload} trace={trace}: correct={result['correct']} "
                    f"failed={result['failed']}")
                return 1
            log(f"{workload} trace={trace}: ok, {len(result['metrics'])} metrics")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return selftest()
    code, result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    if code == 0:
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
