#!/usr/bin/env python3
"""Builds and runs perfbench, the closed-loop host-cost benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds the benchmark from source into .bench_build/ at the
checkout root, runs one workload in one process and passes its output
through; the last line of stdout is the result JSON and the exit code is
the benchmark's (non-zero when any correctness check failed). With
--trace 1 the spans of the last traced round are written to
.bench_build/perfbench/spans-<workload>.tsv.

The second form runs the tiny-size self-check described in README.md.
Run both from the checkout root.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
# A run must end within 180 s of its start, build check included.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not (ROOT / "src").is_dir():
        sys.exit("perfbench: no src/ beside perfbench/; "
                 "run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_binary(args):
    """Runs the binary to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


def parse_output(stdout):
    """Returns (REPORT object, result object) from one run's stdout; either
    is None when the run did not print it."""
    lines = stdout.strip().splitlines()
    report = next((json.loads(l[len("REPORT "):]) for l in lines
                   if l.startswith("REPORT ")), None)
    try:
        return report, json.loads(lines[-1])
    except (IndexError, ValueError):
        return report, None


def self_check():
    """Tiny-size checks: determinism, seeded arrivals, metric coverage."""
    build()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    per_layer = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    problems = []

    def tiny(workload, seed, trace):
        out = run_binary(["--workload", workload, "--seed", str(seed),
                          "--seconds", "0.5", "--trace", str(trace),
                          "--size", "tiny"])
        report, result = parse_output(out.stdout)
        if out.returncode != 0 or not result or not result["correct"]:
            problems.append("%s seed %d trace %d failed:\n%s"
                            % (workload, seed, trace, out.stdout))
        return report or {}, result or {"metrics": {}}

    arrivals = {}
    for w in workloads:
        first, traced = tiny(w, 1, 1)
        second, _ = tiny(w, 1, 1)
        _, untraced = tiny(w, 1, 0)
        if first.get("counts") != second.get("counts"):
            problems.append("%s: one seed run twice gave different counts" % w)
        names = set(traced["metrics"])
        if names != per_layer:
            problems.append("%s: per-layer metrics missing %s, unexpected %s"
                            % (w, sorted(per_layer - names),
                               sorted(names - per_layer)))
        for name in first.get("na", []):
            if traced["metrics"].get(name, {}).get("value") != 0:
                problems.append("%s: n/a metric %s has a value" % (w, name))
        if set(untraced["metrics"]) != end_to_end:
            problems.append("%s: end-to-end metrics are %s"
                            % (w, sorted(untraced["metrics"])))
        print("%s: counts repeat, %d per-layer metrics (%d n/a: %s)"
              % (w, len(names), len(first.get("na", [])),
                 " ".join(first.get("na", [])) or "none"))
        arrivals[w] = first.get("counts", {}).get("arrivals_digest")
    if "rpc_churn" in workloads:
        other, _ = tiny("rpc_churn", 2, 0)
        seed2 = other.get("counts", {}).get("arrivals_digest")
        if seed2 == arrivals["rpc_churn"]:
            problems.append("rpc_churn: seeds 1 and 2 gave the same arrivals")
        print("rpc_churn: arrival digests seed 1 %s, seed 2 %s"
              % (arrivals["rpc_churn"], seed2))
    for p in problems:
        print("SELF-CHECK FAILED: " + p)
    print("self-check %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if not args.workload:
        parser.error("--workload is required")
    build()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(BUILD / ("spans-%s.tsv" % args.workload))]
    out = run_binary(cmd)
    sys.stdout.write(out.stdout)
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())
