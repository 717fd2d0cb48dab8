#!/usr/bin/env python3
"""Run the benchmark's workloads and print every metric by name and unit.

    python3 perfbench/report.py                      # untraced pass, seed 1, every workload
    python3 perfbench/report.py --trace 1            # traced (per-layer) pass
    python3 perfbench/report.py --workloads sim-full --seeds 1,2,3,4,5

For each workload it prints operations attempted and failed, then one row
per metric: its unit, its median over the seeds, and, with two or more
seeds, the distance between the first and third quartile as a share of the
median (the spread the end-to-end bounds in BENCHMARK.json are held to).
Run from the root of a checkout; each run goes through perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {out.returncode}, no result")
    for line in lines[:-1]:
        if not line.startswith("metric "):
            print(f"  {line}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    for workload in args.workloads.split(","):
        print(f"== {workload} (trace {args.trace}, seeds {seeds})")
        results = [run_once(workload, s, args.seconds, args.trace) for s in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"  correct={correct} attempted={attempted} failed={failed}")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            row = f"  {name:48s} {med:>18.6g} {m['unit']:8s}"
            if len(values) >= 2 and med != 0:
                q = statistics.quantiles(values, n=4)
                spread = (q[2] - q[0]) / abs(med)
                row += f" spread {spread:7.2%}"
                if name in bounds:
                    row += f" (bound {bounds[name]:.0%})"
                row += "  [" + " ".join(f"{v:.4g}" for v in values) + "]"
            print(row)


if __name__ == "__main__":
    main()
