#!/usr/bin/env python3
"""Run two sets of the same build of the benchmark interleaved (A/B) and
report, per workload and end-to-end metric, each set's median and
quartiles, its spread, and whether the two medians agree within the bound
BENCHMARK.json fixes for the metric.

Run from the root of the repository:

    python3 wallbench/ab.py                        # every workload, 10 pairs
    python3 wallbench/ab.py --runs 5 --workloads md5-misspec

Run i of each set uses seed i (from 1), so both sets see the same inputs.
Within a pair, which set runs first alternates, so host drift does not
favour one set. The exit code is 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--workloads", help="comma-separated subset")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = "AB"

    ok = True
    for workload in workloads:
        samples = {s: [] for s in sets}
        for i in range(args.runs):
            order = sets if i % 2 == 0 else sets[::-1]
            for s in order:
                samples[s].append(run_once(bench["command"], workload,
                                           i + 1, seconds))
            print(f"{workload}: pair {i + 1}/{args.runs} done", file=sys.stderr)
        print(f"\n{workload} ({args.runs} runs per set, {seconds} s each)")
        print(f"  {'metric':<12} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>7} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            medians = {}
            for s in sets:
                med, q1, q3, spread = describe([r[name] for r in samples[s]])
                medians[s] = med
                if spread > bound:
                    verdict, ok = "TOO NOISY", False
                elif spread > bound / 3:
                    verdict = "steady, above bound/3"
                else:
                    verdict = "steady"
                print(f"  {name:<12} {s:<3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                      f" {spread:>7.3f} {bound:>6}  {verdict}")
                print("  " + " " * 17 + " ".join(f"{r[name]:.4g}" for r in samples[s]))
            shift = medians["B"] / medians["A"] - 1
            agree = abs(shift) <= bound
            ok &= agree
            print(f"  {name:<12} B/A {shift:>+12.3%}  medians"
                  f" {'agree' if agree else 'DISAGREE'} within {bound}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
