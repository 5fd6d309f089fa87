#!/usr/bin/env python3
"""End-to-end benchmark of the LFCA tree: build, run one workload, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload update-heavy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The first form builds perfbench/ (CMake, into $CARGO_TARGET_DIR or
.bench_build/), runs one workload and prints a table of every metric with
its unit and layer, then, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 "metrics" holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 it holds the per-layer metrics, and the flight-recorder
trace is written as Perfetto JSON under <build dir>/perfbench-out/.  The
full result, with the host fingerprint, is written there too.

--self-check plants a wrong lookup value and a reordered range result
through the benchmark's own wrapper and exits non-zero unless the output
checks count both.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures once and builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "lfca", "lfca_tree.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "lfca_perfbench")


def run_binary(binary, args):
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("lfca_perfbench exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or None


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def print_table(doc):
    host, build_info = doc["host"], doc["build"]
    print("workload %s  seed %d  %g s x %d sub-windows  threads %d  S %d"
          % (doc["workload"], doc["seed"], doc["seconds"],
             doc["samples"]["sub_windows"]["value"], doc["threads"],
             doc["key_range"]))
    print("host: nproc %d, %s, L2 %d KiB, L3 %d KiB"
          % (host["nproc"], host["cpu_model"], host["l2_bytes"] // 1024,
             host["l3_bytes"] // 1024))
    print("build: %s %s, CATS_OBS=%d CATS_POOL=%d CATS_CHECKED=%d; "
          "commit %s; sources %s"
          % (build_info["compiler"], build_info["build_type"],
             build_info["cats_obs"], build_info["cats_pool"],
             build_info["cats_checked"], doc["git_commit"] or "none",
             doc["source_sha256"][:16]))
    checks = doc["checks"]
    print("checks: attempted %d failed %d (set-up %d, ops %d), size %d "
          "expected %d, integrity %s"
          % (checks["attempted"], checks["failed"], checks["setup_failed"],
             checks["op_failed"], checks["size"], checks["expected_size"],
             checks["integrity"]))
    for section in ("end_to_end", "samples", "per_layer"):
        print("-- %s" % section)
        for name, m in doc[section].items():
            layer = name.split(".")[0] if "." in name else section
            print("  %-34s %16.6g  %-10s %s"
                  % (name, m["value"], m["unit"], layer))


def self_check(binary):
    ok = True
    for fault in ("none", "value", "order"):
        doc = run_binary(binary, ["--workload", "range-mix", "--seed", "1",
                                  "--seconds", "1", "--trace", "0",
                                  "--plant-fault", fault])
        failed = doc["checks"]["failed"]
        expect = "== 0" if fault == "none" else "> 0"
        good = failed == 0 if fault == "none" else failed > 0
        ok = ok and good
        print("planted fault %-5s: failed %d of %d ops (expected %s) %s"
              % (fault, failed, doc["checks"]["attempted"], expect,
                 "ok" if good else "WRONG"))
    print("self-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="update-heavy, read-mostly or range-mix")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the checkout root")

    binary = build()
    if args.self_check:
        return self_check(binary)

    out_dir = os.path.join(os.path.dirname(build_dir()), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    bin_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # One trace per workload (tens of MB each); the latest run wins.
        bin_args += ["--trace-out",
                     os.path.join(out_dir, "trace-%s.json" % args.workload)]
    doc = run_binary(binary, bin_args)
    doc["git_commit"] = git_commit()
    doc["source_sha256"] = source_digest()
    with open(os.path.join(out_dir, "result-%s.json" % stem), "w") as f:
        json.dump(doc, f, indent=1)
    print_table(doc)

    e2e_names, layer_names = declared_metrics()
    names = layer_names if args.trace else e2e_names
    section = doc["per_layer"] if args.trace else doc["end_to_end"]
    missing = [n for n in names if n not in section]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    checks = doc["checks"]
    result = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {n: section[n] for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
