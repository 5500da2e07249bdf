#!/usr/bin/env python3
"""Steadiness report: runs each workload several times and prints, for every
metric, its median and quartiles across the runs and the spread (the
distance between the quartiles as a share of the median).

    python3 perfbench/steadiness.py [--workloads fault_1cpu,pager_stream,tenant_serving]
        [--runs 10] [--seconds 10] [--first-seed 1] [--trace 0|1] [--out FILE]

Run i uses seed first-seed + i. Quartiles are statistics.quantiles(values,
n=4). When BENCHMARK.json sits at the root of the checkout, each end-to-end
metric's spread is compared with a third of its bound, and the command
exits 1 if any is wider or any run fails. With --runs 1 this is the one
command that runs every workload and prints every metric with its unit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    for line in lines[:-1]:
        if line.startswith("#"):
            print(f"  {line}")
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="fault_1cpu,pager_stream,tenant_serving")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every run's result here as JSON")
    args = parser.parse_args()

    limits = bounds()
    everything = {}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            print(f"{workload} seed {seed}:", flush=True)
            result = run_once(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                print(f"  FAILED: {result}")
                steady = False
                continue
            results.append(result)
        everything[workload] = results
        if not results:
            continue
        print(f"\n{workload}: {len(results)} correct runs")
        print(f"  {'metric':34} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0], None, values[0]))
            spread = (q3 - q1) / median if median else 0.0
            note = ""
            if name in limits:
                ok = spread <= limits[name] / 3
                steady &= ok
                note = f"bound {limits[name]:.2f} {'ok' if ok else 'TOO NOISY'}"
            print(f"  {name:34} {first['unit']:6} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.2%} {note}")
        print()
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
