#!/usr/bin/env python3
"""sim_pairs_diff: cross-check catslint's static release/acquire matrix
against the release/acquire pairs the simulator actually observed.

Inputs:
  --atomics  JSON from `catslint.py --dump-atomics` (every static atomic
             site with its resolved memory orders).
  --pairs    JSON-lines file written by the sim tests when
             CATS_SIM_PAIRS_OUT is set: one object per observed
             synchronizes-with edge, {"store_file", "store_line",
             "load_file", "load_line", "count"}.

The report is ADVISORY: the sim scenarios drive a handful of schedules
over small trees, so a statically-declared release store that never
showed up in a pair usually means "not covered by a scenario", not a
bug.  The interesting directions are:

  * observed pair whose store site is not a static release-side write —
    either the static matrix is stale or catslint missed a site;
  * observed pair whose store site catslint thinks is relaxed — a real
    disagreement worth a look;
  * static release-side writes never observed pairing — a coverage list
    for future scenarios.

Exit code is always 0 unless --strict is given, in which case the two
disagreement classes (not coverage gaps) fail the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

RELEASE_SIDE = {"release", "acq_rel", "seq_cst"}
ACQUIRE_SIDE = {"acquire", "acq_rel", "consume", "seq_cst"}


def _norm(path: str) -> str:
    """Join key: repo-relative when possible, else the path's tail.

    The sim records __FILE__/source_location paths (absolute or
    build-relative); catslint records repo-relative ones.  The last two
    components disambiguate every source file in this repo.
    """
    parts = path.replace("\\", "/").split("/")
    return "/".join(parts[-2:])


def load_pairs(path: str, scope):
    pairs = defaultdict(int)
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            obj = json.loads(raw)
            store = obj["store_file"].replace("\\", "/")
            if scope and not any(s in store for s in scope):
                continue
            key = (_norm(store), int(obj["store_line"]),
                   _norm(obj["load_file"]), int(obj["load_line"]))
            pairs[key] += int(obj.get("count", 1))
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="sim_pairs_diff",
                                 description=__doc__)
    ap.add_argument("--atomics", required=True,
                    help="catslint --dump-atomics output")
    ap.add_argument("--pairs", required=True,
                    help="JSONL of observed pairs (CATS_SIM_PAIRS_OUT)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on matrix/observation disagreements")
    ap.add_argument("--scope", action="append", default=[],
                    help="only report observed stores whose path contains "
                         "this substring (repeatable; e.g. --scope src/). "
                         "Pairs from test scaffolding are outside the "
                         "static dump and would otherwise all show up as "
                         "'unknown site'.")
    args = ap.parse_args(argv)

    with open(args.atomics, encoding="utf-8") as fh:
        atomics = json.load(fh)["atomics"]
    pairs = load_pairs(args.pairs, args.scope)

    by_site = {}
    for op in atomics:
        by_site[(_norm(op["file"]), op["line"])] = op

    release_sites = {
        (_norm(op["file"]), op["line"]): op for op in atomics
        if op.get("write_order") in RELEASE_SIDE}

    observed_stores = {(sf, sl) for sf, sl, _, _ in pairs}

    unknown_stores = []     # observed, no static op at that site
    weaker_stores = []      # observed, static op is weaker than release
    uncovered = []          # static release write never observed pairing

    for (sf, sl, lf, ll), n in sorted(pairs.items()):
        op = by_site.get((sf, sl))
        if op is None:
            unknown_stores.append((sf, sl, lf, ll, n))
        elif op.get("write_order") not in RELEASE_SIDE:
            weaker_stores.append((sf, sl, lf, ll, n,
                                  op.get("write_order")))

    for site, op in sorted(release_sites.items()):
        if site not in observed_stores:
            uncovered.append((site[0], site[1], op["field"], op["op"]))

    print(f"sim_pairs_diff: {len(pairs)} observed pair(s), "
          f"{len(release_sites)} static release-side write(s)")
    if unknown_stores:
        print("\n# observed pairs with no static atomic site "
              "(stale dump or missed site):")
        for sf, sl, lf, ll, n in unknown_stores:
            print(f"  {sf}:{sl} -> {lf}:{ll}  x{n}")
    if weaker_stores:
        print("\n# observed pairs whose store site is statically weaker "
              "than release (disagreement):")
        for sf, sl, lf, ll, n, wo in weaker_stores:
            print(f"  {sf}:{sl} [{wo}] -> {lf}:{ll}  x{n}")
    if uncovered:
        print("\n# static release-side writes never observed pairing "
              "(scenario coverage gaps, advisory):")
        for sf, sl, field, op in uncovered:
            print(f"  {sf}:{sl}  {op}() on `{field}`")
    if not (unknown_stores or weaker_stores or uncovered):
        print("matrix and observations agree; full coverage")

    if args.strict and (unknown_stores or weaker_stores):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
