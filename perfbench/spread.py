#!/usr/bin/env python3
"""Runs one workload several times and prints each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload cold_exact --runs 10 --first-seed 1

Each run uses the next seed. For every metric the script prints the median,
the first and third quartiles (statistics.quantiles, n=4) and the
interquartile range as a share of the median, then the share of failed
operations. With --json the summary is also written as one JSON object.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run with seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()

    values, units, failed_shares = {}, {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, args.seconds, args.trace)
        if not result["correct"]:
            sys.exit(f"run with seed {seed} reported incorrect output")
        failed_shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']}", file=sys.stderr)

    summary = {"workload": args.workload, "runs": args.runs,
               "first_seed": args.first_seed, "metrics": {}}
    print(f"{'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8}  unit")
    for name in sorted(values):
        vals = values[name]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], vals[0], vals[0]))
        spread = (q3 - q1) / abs(med) if med != 0 else float("nan")
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "unit": units[name],
                                    "values": vals}
        print(f"{name:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.3f}  {units[name]}")
    print(f"failed share per run: {sorted(set(failed_shares))}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
