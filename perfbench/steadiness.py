#!/usr/bin/env python3
"""Run one workload on several seeds and report the spread of each metric.

    python3 perfbench/steadiness.py paper-das --seeds 1-10

For every end-to-end metric prints the median, the first and third
quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median and the
metric's bound from BENCHMARK.json. Runs are sequential, so a run's host
times are not disturbed by another.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))

    values = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: checks failed\n{out.stderr[-2000:]}")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}", json.dumps(row), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print(f"{'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} bound")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"{m['name']:14} {med:12.5g} {q1:12.5g} {q3:12.5g} {(q3 - q1) / med:7.4f} {m['bound']}")


if __name__ == "__main__":
    main()
