#!/usr/bin/env python3
"""Builds and runs the EDMS benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bulk_dayahead --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

The first call configures and builds perfbench/ (Release) into the directory
named by CARGO_TARGET_DIR, default .bench_build, relative to the checkout.
Build output goes to stderr. The last stdout line of a single-workload run is
the benchmark's JSON result; `--workload all` runs every workload in its own
process (so peak RSS stays per workload) and ends with one JSON object keyed
by workload. The exit code is non-zero if the build fails or any
correctness gate fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["bulk_dayahead", "sched_bound", "sharded_intraday"]
DEFAULT_SEED = 1
# Never used while tuning the benchmark; recheck claims on it.
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        subprocess.run(
            ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "edms_perfbench")


def run_one(binary, build_dir, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, f"spans-{workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        return None, proc.returncode or 1
    result = json.loads(lines[-1])
    return (lines, result), 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.stderr.write(f"perfbench: build failed: {err}\n")
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    status = 0
    for workload in workloads:
        try:
            out, code = run_one(binary, build_dir, workload, args)
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"perfbench: {workload} timed out\n")
            return 3
        if out is None:
            sys.stderr.write(f"perfbench: {workload} failed (exit {code})\n")
            status = status or code
            continue
        lines, result = out
        if len(workloads) == 1:
            print("\n".join(lines))
        else:
            print(f"== {workload}")
            print("\n".join(lines[:-1]))
        results[workload] = result
    if len(workloads) > 1 and status == 0:
        print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
