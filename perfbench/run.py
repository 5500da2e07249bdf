#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fault_1cpu|pager_stream|tenant_serving \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the repository's src/ libraries it links) in .bench_build/
with CMake in Release mode; later runs only let the build tool confirm the
tree is current. Build output goes to stderr. The binary's report lines
(starting with '#') and its record line are passed through, and the JSON
result is printed as the last line of standard output.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fault_1cpu", "pager_stream", "tenant_serving")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"{root / 'src'} is missing: the benchmark builds the program from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build"
    binary = build(root, build_dir)
    started = time.monotonic()

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-file", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    # The run itself (set-ups, timed sessions, checks and teardowns) must end
    # well within three minutes.
    budget = RUN_BUDGET_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_BUDGET_S} s")

    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with {proc.returncode} and no result")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
