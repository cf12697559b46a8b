#!/usr/bin/env python3
"""Steadiness report: run the benchmark K times per workload, one seed each.

    python3 perfbench/steady.py [--workload NAME ...] [--runs K]
                                [--sets N] [--first-seed S] [--seconds N]

Run from the repository root. For every end-to-end metric of
BENCHMARK.json it prints the median and quartiles of the K values
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and
the metric's bound, and marks the spread:

    steady   under a third of the bound (the target)
    ok       under the bound (accepted, with little margin)
    NO       at or over the bound (rejected; setup_s's spread is
             reported but not gated, only its median shift is)

With --sets N > 1 the K runs are repeated N times with the same seeds,
and for every metric it prints how much worse each later set's median
is than the first's, as a share of the first, against the bound (a
shift in the better direction counts as 0). With no --workload, every
workload in BENCHMARK.json runs. Exits 1 if any run fails or reports
incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def verdict(spread, bound):
    if spread < bound / 3:
        return "steady"
    return "ok" if spread < bound else "NO"


def run_set(bench, workload, args):
    """K runs of one workload; returns ({metric: [values]}, all correct)."""
    ok = True
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for k in range(args.runs):
        seed = args.first_seed + k
        result = run_once(workload, seed, args.seconds)
        if not result["correct"] or result["failed"]:
            print(f"{workload} seed {seed}: "
                  f"{result['failed']} of {result['attempted']} failed")
            ok = False
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"{workload} seed {seed}: " + " ".join(
            f"{name}={v[-1]:.6g}" for name, v in values.items()), flush=True)
    print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {args.seconds} s each")
    print(f"{'metric':22} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        print(f"{metric['name']:22} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} {metric['bound']:6.2f}  "
              f"{verdict(spread, metric['bound'])}")
    print(flush=True)
    return values, ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    ok = True
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            values, set_ok = run_set(bench, workload, args)
            sets.append(values)
            ok = ok and set_ok
        for n, later in enumerate(sets[1:], start=2):
            print(f"{workload}: set {n} against set 1 (median shift, "
                  f"worse direction)")
            for metric in bench["end_to_end"]:
                first = statistics.median(sets[0][metric["name"]])
                now = statistics.median(later[metric["name"]])
                worse = (now - first if metric["better"] == "lower"
                         else first - now) / first
                shift = max(worse, 0.0)
                print(f"  {metric['name']:22} {first:12.6g} -> {now:12.6g}"
                      f" {shift:8.2%} {metric['bound']:6.2f}  "
                      f"{'ok' if shift <= metric['bound'] else 'NO'}")
            print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
