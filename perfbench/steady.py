#!/usr/bin/env python3
"""Run the benchmark several times, one seed per run, and print each
metric's median and quartile spread across the runs.

Run from the repository root:

    python3 perfbench/steady.py --workload manytask --runs 10 --seconds 30

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4); a metric is steady for a bound b when
its spread stays below b. Bounds are read from BENCHMARK.json when it
sits in the current directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bench = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    seconds = args.seconds or bench.get("run_seconds", 10)
    bounds = {m["name"]: m.get("bound") for m in bench.get("end_to_end", [])}

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            sys.exit("run with seed %d failed (exit %d)" % (seed, out.returncode))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit("run with seed %d failed its output check" % seed)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))), flush=True)

    print("%-28s %14s %14s %14s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-28s %14.6g %14.6g %14.6g %7.2f%% %8s  %s" % (
            name, med, q1, q3, 100 * spread, "-" if bound is None else "%.0f%%" % (100 * bound),
            units[name]))


if __name__ == "__main__":
    main()
