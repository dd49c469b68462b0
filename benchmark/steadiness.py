#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 benchmark/steadiness.py --runs 10 > benchmark/STEADINESS.json

Run from the repository root. Runs every workload of BENCHMARK.json
once per seed, seeds 1 to RUNS, through run.py with BENCHMARK.json's
run_seconds, and prints JSON: for each workload and end-to-end metric,
the median, the quartiles (statistics.quantiles(n=4)), the quartile
spread as a share of the median, the largest deviation from the median
as a share of it, the metric's bound, and every value; and each run's
host slowdowns (set-up, timed phase) as the binary reports them. A
summary goes to standard error. Exits non-zero if a run fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SLOWDOWN = re.compile(r"host slowdown ([0-9.]+) in set-up, ([0-9.]+) in the timed phase")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "run_seconds": bench["run_seconds"],
        "seeds": [1, args.runs],
        "workloads": {},
        "host_slowdowns": {},
    }
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        slowdowns = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                failed = True
                continue
            metrics = json.loads(lines[-1])["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
            found = SLOWDOWN.search(done.stderr)
            slowdowns.append([float(found[1]), float(found[2])] if found else None)
        report["host_slowdowns"][workload] = slowdowns
        summary = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med,
                "max_deviation": max(abs(v - med) for v in vals) / med,
                "bound": bounds[name],
                "values": vals,
            }
            print(f"{workload:14} {name:12} median {med:10.4f} spread {(q3 - q1) / med:6.3f} "
                  f"max dev {summary[name]['max_deviation']:6.3f} bound {bounds[name]}",
                  file=sys.stderr)
        report["workloads"][workload] = summary
    print(json.dumps(report, indent=2))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
