#!/usr/bin/env python3
"""Compare two builds of the wall-clock benchmark: run the `wallbench`
binaries of two checkouts of this repository (a parent and a change)
alternately, and report, per workload and end-to-end metric, each side's
median and quartiles and in how many pairs the change was better.

Make the two checkouts first, e.g. with `git worktree add` or `git clone`,
then run from anywhere:

    python3 scripts/ab_builds.py PARENT_DIR CHANGE_DIR
    python3 scripts/ab_builds.py PARENT_DIR CHANGE_DIR --first-seed 11

The script builds `wallbench` in each checkout (`cargo build --release
--offline --manifest-path wallbench/Cargo.toml`) and runs each binary from
its own checkout. Every workload gets PAIRS (10) pairs; pair i runs seed
FIRST_SEED + i on both sides, and which side runs first alternates from
pair to pair, so host drift favours neither. The workloads, metrics,
their direction and bounds, and the run length (`run_seconds`) come from
the change's BENCHMARK.json. A run that exits non-zero, is not `correct`
or reports failed operations stops the comparison with exit code 1.

Columns: `change` is the change's median over the parent's, minus one;
`spread` is the parent's quartile distance over its median; `wins` counts
the pairs in which the change was better.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Fewest pairs from which a claimed gain can be judged (nine wins of ten).
PAIRS = 10


def build(checkout):
    manifest = os.path.join(checkout, "wallbench", "Cargo.toml")
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", manifest], check=True)
    binary = os.path.join(checkout, "wallbench", "target", "release", "wallbench")
    if not os.path.exists(binary):
        sys.exit(f"{binary}: not built")
    return binary


def run_once(checkout, binary, workload, seed, seconds):
    argv = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} in {checkout}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: {workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of pair 1")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    binaries = {side: build(checkout) for side, checkout in sides.items()}

    for workload in workloads:
        runs = {side: [] for side in sides}
        for i in range(PAIRS):
            seed = args.first_seed + i
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                runs[side].append(run_once(sides[side], binaries[side],
                                           workload, seed, seconds))
            print(f"{workload}: pair {i + 1}/{PAIRS} (seed {seed}) done",
                  file=sys.stderr)

        print(f"\n{workload}: {PAIRS} pairs, seeds {args.first_seed}.."
              f"{args.first_seed + PAIRS - 1}, {seconds} s per run")
        print(f"  {'metric':<12} {'parent median [q1..q3]':<34}"
              f" {'change median [q1..q3]':<34} {'change':>7} {'spread':>7}"
              f" {'bound':>6} {'wins':>6}")
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            a = [r[name] for r in runs["parent"]]
            b = [r[name] for r in runs["change"]]
            a_med, a_q1, a_q3 = quartiles(a)
            b_med, b_q1, b_q3 = quartiles(b)
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            print(f"  {name:<12} {f'{a_med:.4g} [{a_q1:.4g}..{a_q3:.4g}]':<34}"
                  f" {f'{b_med:.4g} [{b_q1:.4g}..{b_q3:.4g}]':<34}"
                  f" {b_med / a_med - 1:>+7.1%} {(a_q3 - a_q1) / a_med:>7.1%}"
                  f" {m['bound']:>6} {wins:>3}/{PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
