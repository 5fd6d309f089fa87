#!/usr/bin/env python3
"""Benchmark smoke gate: compare a bench_micro run against the committed
baseline and fail on large throughput regressions.

The committed baseline is BENCH_micro.json at the repo root, which holds a
"benchmarks" map of {benchmark name: ns/op}.  CI runs:

    ./build/bench/bench_micro \
        --benchmark_format=json --benchmark_out=results.json \
        --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
    python3 tools/bench_smoke.py --baseline BENCH_micro.json \
        --results results.json

A benchmark regresses when its measured ns/op exceeds baseline * tolerance
(default 1.20, i.e. >20% slower).  Medians are compared when repetitions
were requested, which keeps one descheduled iteration on a noisy shared
runner from failing the build; the tolerance absorbs the rest.  Benchmarks
present on only one side are reported but never fail the gate, so adding or
retiring a benchmark doesn't need a lockstep baseline update.

--update rewrites the baseline's "benchmarks" map from the results file
for recording a new accepted baseline.
"""

import argparse
import json
import sys


def load_results(path):
    """Extracts {name: ns/op} from google-benchmark JSON output.

    Prefers median aggregates when present; falls back to plain iteration
    rows.  Times are normalised to nanoseconds.
    """
    with open(path) as f:
        data = json.load(f)
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    medians = {}
    iterations = {}
    for row in data.get("benchmarks", []):
        ns = row["real_time"] * scale[row.get("time_unit", "ns")]
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") == "median":
                medians[row["run_name"]] = ns
        else:
            iterations[row["name"]] = ns
    return medians or iterations


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_micro.json")
    parser.add_argument("--results", required=True,
                        help="google-benchmark JSON output file")
    parser.add_argument("--tolerance", type=float, default=1.20,
                        help="fail when ns/op > baseline * tolerance")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline's benchmarks map from "
                             "the results instead of gating")
    args = parser.parse_args()

    results = load_results(args.results)
    if not results:
        print("bench_smoke: no benchmark rows in", args.results)
        return 1

    with open(args.baseline) as f:
        baseline = json.load(f)

    if args.update:
        baseline["benchmarks"] = {
            name: round(ns, 1) for name, ns in sorted(results.items())
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
        print(f"bench_smoke: baseline updated with {len(results)} "
              f"benchmarks -> {args.baseline}")
        return 0

    reference = baseline.get("benchmarks", {})
    if not reference:
        print(f"bench_smoke: {args.baseline} has no 'benchmarks' map; "
              f"record one with --update")
        return 1

    regressions = []
    print(f"{'benchmark':<40} {'base ns':>12} {'now ns':>12} {'ratio':>7}")
    for name, base_ns in sorted(reference.items()):
        if name not in results:
            print(f"{name:<40} {base_ns:>12.1f} {'(absent)':>12}")
            continue
        now_ns = results[name]
        ratio = now_ns / base_ns
        flag = "  REGRESSION" if ratio > args.tolerance else ""
        print(f"{name:<40} {base_ns:>12.1f} {now_ns:>12.1f} "
              f"{ratio:>7.2f}{flag}")
        if ratio > args.tolerance:
            regressions.append((name, base_ns, now_ns))
    for name in sorted(set(results) - set(reference)):
        print(f"{name:<40} {'(new)':>12} {results[name]:>12.1f}")

    if regressions:
        print(f"\nbench_smoke: {len(regressions)} benchmark(s) regressed "
              f"more than {(args.tolerance - 1) * 100:.0f}% vs "
              f"{args.baseline}")
        return 1
    print(f"\nbench_smoke: OK ({len(reference)} baselined benchmarks, "
          f"tolerance {(args.tolerance - 1) * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
