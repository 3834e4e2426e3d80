#!/usr/bin/env python3
"""Enforce the telemetry disabled-overhead budget from bench output.

Usage: check_disabled_overhead.py [BENCH_OUTPUT [BUDGET]]

Reads criterion-style output on stdin (or the file BENCH_OUTPUT), finds
every `telemetry_disabled_overhead_64B/{disabled,compiled_out}` line and
pairs them in order: the i-th `disabled` line with the i-th
`compiled_out` line. The bench group measures the two sides in short
back-to-back rounds, so each pair is an interleaved paired sample. Each
pair is summarized by the ratio of its two medians (the middle of each
`[min median max]` triple), and the verdict is the median of those
ratios. It fails if that median exceeds 1 + BUDGET (default 3%), or if
fewer than MIN_PAIRS pairs were fed in: seven runs of the bench group,
16 rounds each.

A median of many paired ratios is robust to host noise: drift between
rounds cancels within each pair, and a single lucky or unlucky pair
cannot flip the verdict, as it could when each side was summarized by
its minimum.

See docs/observability.md ("The disabled-overhead contract").
"""

import re
import statistics
import sys

MIN_PAIRS = 7 * 16
UNITS = {"ns": 1.0, "µs": 1e3, "us": 1e3, "ms": 1e6, "s": 1e9}
LINE = re.compile(
    r"telemetry_disabled_overhead_64B/(\w+)\s+time:\s+\["
    r"[\d.]+ \S+ ([\d.]+) (\S+) [\d.]+ \S+\]"
)


def medians_ns(text, which):
    return [
        float(m.group(2)) * UNITS[m.group(3)]
        for m in LINE.finditer(text)
        if m.group(1) == which
    ]


def main():
    text = open(sys.argv[1]).read() if len(sys.argv) > 1 else sys.stdin.read()
    budget = float(sys.argv[2]) if len(sys.argv) > 2 else 0.03
    disabled = medians_ns(text, "disabled")
    baseline = medians_ns(text, "compiled_out")
    if len(disabled) != len(baseline):
        sys.exit(
            f"error: {len(disabled)} disabled vs {len(baseline)} compiled_out "
            "lines; every round must report both"
        )
    if len(disabled) < MIN_PAIRS:
        sys.exit(f"error: {len(disabled)} pair(s) found, need at least {MIN_PAIRS}")
    ratios = [d / b for d, b in zip(disabled, baseline)]
    overhead = statistics.median(ratios) - 1.0
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    print(
        f"disabled/compiled_out, median of {len(ratios)} pairs: {overhead:+.2%} "
        f"(quartiles {q1 - 1.0:+.2%} .. {q3 - 1.0:+.2%}, budget {budget:+.0%})"
    )
    if overhead > budget:
        sys.exit("error: disabled-telemetry overhead exceeds budget")


if __name__ == "__main__":
    main()
