#!/usr/bin/env python3
"""cats-lint: repo-specific static analysis for the LFCA tree's
concurrency contracts.

Rules (see DESIGN.md, "Static analysis"):
  R0 dangling-annotation     every catslint annotation still earns its keep
  R1 explicit-memory-order   every atomic op names its memory order
  R2 guard-required          shared-pointer loads happen under an EBR guard
  R3 retire-not-delete       node types go through Domain::retire
  R4 no-blocking-in-lockfree lock-free paths never block
  R5 release-acquire-pairing per-field order matrix: release writes have
                             acquire readers, no relaxed pointer publish
  R6 immutable-after-publish no plain field writes on published nodes
  R7 guard-lifetime          loaded pointers die with their guard; CAS
                             expected values come from the current guard

The analysis front end is a dependency-free lexical engine
(token_engine.py), so results match on every machine with Python 3.

Usage:
  catslint.py [--src PATH ...] [--jobs N]
              [--baseline tools/catslint/baseline.json]
              [--disable R2,R4] [--update-baseline] [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import baseline as baseline_mod  # noqa: E402
import rules as rules_mod  # noqa: E402
import token_engine  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SOURCE_EXTS = (".hpp", ".cpp", ".cc", ".h", ".hh", ".cxx")


def discover_sources(paths):
    out = []
    for p in paths:
        p = os.path.abspath(p)
        if os.path.isfile(p):
            out.append(p)
            continue
        for root, dirs, files in os.walk(p):
            dirs[:] = [d for d in dirs if not d.startswith(".")]
            for name in sorted(files):
                if name.endswith(SOURCE_EXTS):
                    out.append(os.path.join(root, name))
    return sorted(set(out))


def _analyze_one(job):
    """Module-level worker so multiprocessing can pickle it."""
    path, rel, cfg = job
    return token_engine.analyze_file(path, rel, cfg)


def build_models(wanted, cfg, jobs):
    """FileModels for `wanted`, in input (sorted-path) order regardless
    of how many workers built them."""
    work = [(p, os.path.relpath(p, REPO), cfg) for p in wanted]
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(work) <= 1:
        return [_analyze_one(j) for j in work]
    import multiprocessing
    with multiprocessing.Pool(min(jobs, len(work))) as pool:
        # pool.map preserves input order, so output ordering (and hence
        # finding order and fingerprints) is identical to the serial run.
        return pool.map(_analyze_one, work, chunksize=4)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="catslint", description=__doc__)
    ap.add_argument("--src", action="append", default=[],
                    help="file or directory to analyze (repeatable); "
                         "default: <repo>/src")
    ap.add_argument("--config", default=os.path.join(HERE, "config.json"))
    ap.add_argument("--baseline",
                    default=os.path.join(HERE, "baseline.json"))
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore the baseline file (report everything)")
    ap.add_argument("--disable", default="",
                    help="comma-separated rules to disable, e.g. R2,R4")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from current findings")
    ap.add_argument("--json", default="",
                    help="write a JSON report to this path")
    ap.add_argument("--dump-atomics", default="",
                    help="write every analyzed atomic op (file, line, op, "
                         "field, orders) as JSON to this path; input for "
                         "tools/sim_pairs_diff.py")
    ap.add_argument("--jobs", "-j", type=int, default=1,
                    help="worker processes (0 = one per CPU; output "
                         "order is stable)")
    ap.add_argument("--verbose", "-v", action="store_true")
    args = ap.parse_args(argv)
    t0 = time.monotonic()

    with open(args.config, encoding="utf-8") as f:
        cfg = json.load(f)

    disabled = {r.strip().upper() for r in args.disable.split(",")
                if r.strip()}
    enabled = {r for r in rules_mod.ALL_RULES if r not in disabled}

    src_paths = args.src or [os.path.join(REPO, "src")]
    wanted = discover_sources(src_paths)
    models = build_models(wanted, cfg, args.jobs)

    if args.dump_atomics:
        dump = [{"file": op.file, "line": op.line, "op": op.op,
                 "field": op.field, "orders": list(op.orders),
                 "write_order": op.write_order(),
                 "read_order": op.read_order(),
                 "stores_pointer": op.stores_pointer,
                 "receiver_unpublished": op.receiver_unpublished}
                for m in models for op in m.atomic_ops]
        with open(args.dump_atomics, "w", encoding="utf-8") as fh:
            json.dump({"atomics": dump}, fh, indent=2)
            fh.write("\n")

    findings = rules_mod.run_all(models, cfg, enabled)

    if args.update_baseline:
        baseline_mod.save(args.baseline, findings)
        print(f"catslint: wrote {len(findings)} finding(s) to "
              f"{os.path.relpath(args.baseline, REPO)}")
        return 0

    base = {} if args.no_baseline else baseline_mod.load(args.baseline)
    new, old = baseline_mod.split(findings, base)

    for f in new:
        print(f.render())
    if args.verbose and old:
        for f in old:
            print(f"(baselined) {f.render()}")

    if args.json:
        report = {
            "files_analyzed": len(models),
            "rules": sorted(enabled),
            "new": [vars(f) for f in new],
            "baselined": [vars(f) for f in old],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")

    elapsed = time.monotonic() - t0
    summary = (f"catslint: {len(models)} file(s), "
               f"{len(new)} new finding(s), {len(old)} baselined "
               f"({elapsed:.2f}s"
               + (f", {args.jobs or os.cpu_count()} jobs)"
                  if args.jobs != 1 else ")"))
    print(summary, file=sys.stderr)
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
