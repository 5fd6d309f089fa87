"""The cats-lint rules, evaluated over the FileModel.

R0 dangling-annotation    — every `// catslint:` annotation must still
                            suppress (or justify) a live finding.
R1 explicit-memory-order  — no defaulted (or unexplained explicit) seq_cst.
R2 guard-required         — shared-atomic pointer loads only in functions
                            proven to run under an EBR guard
                            (directly, by annotation, or because every
                            caller chain in the TU is proven).
R3 retire-not-delete      — no direct delete of reclaimable node types
                            outside src/reclaim/ and poisoning deleters.
R4 no-blocking-in-lockfree— no blocking primitive reachable from the
                            lock-free entry points.
R5 release-acquire-pairing— per-field order matrix over every atomic site
                            in the analyzed set: a release-side write needs
                            an acquire-side reader (and vice versa), a
                            relaxed store must not publish a pointer, and a
                            seq_cst justification claiming a fence pair must
                            name a partner that still exists.
R6 immutable-after-publish— no non-atomic field write on a node reachable
                            after the node escaped via an atomic store/CAS
                            (intra-function flow + call-graph closure).
R7 guard-lifetime         — a pointer loaded under a Guard must not
                            flow past the guard's scope, and a CAS expected
                            value must come from the current guard
                            generation (ABA discipline).

Rules R0-R4, R6 and R7 are per-file; R5 aggregates the order matrix over
the whole analyzed set, and R0 runs last because it consumes the `used`
marks the other rules leave on annotations.  `run_all` therefore always
EVALUATES every rule and only filters what is EMITTED by the enabled set —
disabling a rule must not fabricate dangling annotations.
"""

from __future__ import annotations

import fnmatch
import re
from typing import Dict, List, Set, Tuple

from model import (ACQUIRE_SIDE, RELEASE_SIDE, FileModel, Finding, FuncInfo,
                   fingerprint, suppressed)

ALL_RULES = ("R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7")


def _line_text(model: FileModel, line: int) -> str:
    return model.lines.get(line, "")


def _path_matches(rel: str, patterns: List[str]) -> bool:
    return any(fnmatch.fnmatch(rel, pat) or rel.startswith(pat.rstrip("*"))
               for pat in patterns)


def _mk(model: FileModel, rule: str, line: int, msg: str) -> Finding:
    return Finding(rule=rule, file=model.rel, line=line, message=msg,
                   fingerprint=fingerprint(rule, model.rel,
                                           _line_text(model, line)))


# ---------------------------------------------------------------------------
# R1
# ---------------------------------------------------------------------------

def check_r1(model: FileModel, cfg: dict) -> List[Finding]:
    out: List[Finding] = []
    if _path_matches(model.rel, cfg.get("r1", {}).get("exempt_paths", [])):
        return out
    for op in model.atomic_ops:
        anns = model.annotations_for_line(op.line)
        if not op.has_explicit_order:
            if suppressed(anns, "R1", "seq_cst"):
                continue
            out.append(_mk(
                model, "R1", op.line,
                f"atomic {op.op}() relies on the defaulted "
                f"std::memory_order_seq_cst; pass an explicit order or "
                f"annotate `// catslint: seq_cst(<reason>)`"))
        elif op.explicit_seq_cst:
            if suppressed(anns, "R1", "seq_cst"):
                continue
            out.append(_mk(
                model, "R1", op.line,
                f"atomic {op.op}() uses memory_order_seq_cst without a "
                f"`// catslint: seq_cst(<reason>)` justification"))
    return out


# ---------------------------------------------------------------------------
# R2
# ---------------------------------------------------------------------------

def _sccs(nodes: List[str], edges: Dict[str, Set[str]]) -> List[Set[str]]:
    """Tarjan SCCs (iterative) over the caller graph."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    result: List[Set[str]] = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(edges.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp: Set[str] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                result.append(comp)
    return result


def guard_coverage(model: FileModel) -> Dict[str, bool]:
    """For every function (by base name): is it proven to run under a
    guard?  True when the function creates a guard, is annotated
    under-guard/quiescent, or when every caller-SCC above it is covered.

    Computed on the SCC condensation of the per-TU call graph so mutual
    recursion neither loops forever nor self-certifies: an SCC with no
    external callers is covered only if it contains a seed.
    """
    funcs: Dict[str, FuncInfo] = {}
    for f in model.funcs:
        funcs.setdefault(f.base_name, f)
    defined = set(funcs)

    seeds: Set[str] = set()
    for f in model.funcs:
        directives = {a.directive for a in model.annotations_for_func(f)}
        if f.creates_guard or "under-guard" in directives or \
                "quiescent" in directives:
            seeds.add(f.base_name)

    callees: Dict[str, Set[str]] = {n: set() for n in defined}
    callers: Dict[str, Set[str]] = {n: set() for n in defined}
    for f in model.funcs:
        for callee, _ in f.calls:
            if callee in defined and callee != f.base_name:
                callees[f.base_name].add(callee)
                callers[callee].add(f.base_name)

    comps = _sccs(sorted(defined), callees)
    comp_of: Dict[str, int] = {}
    for idx, comp in enumerate(comps):
        for n in comp:
            comp_of[n] = idx

    covered: Dict[int, bool] = {}

    def comp_covered(idx: int, visiting: Set[int]) -> bool:
        if idx in covered:
            return covered[idx]
        comp = comps[idx]
        if comp & seeds:
            covered[idx] = True
            return True
        pred_comps = {comp_of[c] for n in comp for c in callers[n]
                      if comp_of[c] != idx}
        if not pred_comps:
            covered[idx] = False
            return False
        visiting.add(idx)
        ok = all(p not in visiting and comp_covered(p, visiting)
                 for p in pred_comps)
        visiting.discard(idx)
        covered[idx] = ok
        return ok

    return {n: comp_covered(comp_of[n], set()) for n in defined}


def check_r2(model: FileModel, cfg: dict) -> List[Finding]:
    out: List[Finding] = []
    r2 = cfg.get("r2", {})
    if not _path_matches(model.rel, r2.get("paths", [])):
        return out
    if _path_matches(model.rel, r2.get("exempt_paths", [])):
        return out
    coverage = guard_coverage(model)
    for f in model.funcs:
        if not f.shared_load_lines:
            continue
        if coverage.get(f.base_name, False):
            continue
        line = f.shared_load_lines[0]
        anns = model.annotations_for_line(line) + \
            model.annotations_for_func(f)
        if suppressed(anns, "R2", "under-guard") or \
                suppressed(anns, "R2", "quiescent"):
            continue
        out.append(_mk(
            model, "R2", line,
            f"{f.name}() loads a shared atomic pointer but neither it nor "
            f"every in-TU caller chain holds an EBR Guard; "
            f"add a guard or annotate the function "
            f"`// catslint: under-guard` / `// catslint: "
            f"quiescent(<reason>)`"))
    return out


# ---------------------------------------------------------------------------
# R3
# ---------------------------------------------------------------------------

def check_r3(model: FileModel, cfg: dict) -> List[Finding]:
    out: List[Finding] = []
    r3 = cfg.get("r3", {})
    if _path_matches(model.rel, r3.get("exempt_paths", [])):
        return out
    node_types = set(r3.get("node_types", []))
    for op in model.delete_ops:
        if op.in_operator_delete:
            continue
        t = op.target_type
        if op.is_delete_this and op.enclosing_class in node_types:
            t = op.enclosing_class
        if t not in node_types:
            continue
        anns = model.annotations_for_line(op.line)
        if suppressed(anns, "R3", "direct-delete"):
            continue
        out.append(_mk(
            model, "R3", op.line,
            f"direct delete of reclaimable node type `{t}` "
            f"(`delete {op.target_expr.strip()}`); route it through "
            f"Domain::retire or annotate "
            f"`// catslint: direct-delete(<reason>)`"))
    return out


# ---------------------------------------------------------------------------
# R4
# ---------------------------------------------------------------------------

def check_r4(model: FileModel, cfg: dict) -> List[Finding]:
    out: List[Finding] = []
    r4 = cfg.get("r4", {})
    if not _path_matches(model.rel, r4.get("paths", [])):
        return out
    if _path_matches(model.rel, r4.get("exempt_paths", [])):
        return out
    entry_points = set(r4.get("entry_points", []))

    funcs: Dict[str, FuncInfo] = {}
    for f in model.funcs:
        funcs.setdefault(f.base_name, f)
    callees: Dict[str, Set[str]] = {}
    for f in model.funcs:
        callees.setdefault(f.base_name, set()).update(
            c for c, _ in f.calls if c in funcs)

    reachable: Set[str] = set()
    work = [n for n in funcs if n in entry_points]
    while work:
        n = work.pop()
        if n in reachable:
            continue
        reachable.add(n)
        work.extend(callees.get(n, ()))

    for f in model.funcs:
        if f.base_name not in reachable or not f.blocking:
            continue
        for what, line in f.blocking:
            anns = model.annotations_for_line(line) + \
                model.annotations_for_func(f)
            if suppressed(anns, "R4", "blocking-ok"):
                continue
            out.append(_mk(
                model, "R4", line,
                f"blocking primitive `{what}` in {f.name}(), reachable "
                f"from lock-free entry points; lock-free operations must "
                f"not block (annotate `// catslint: blocking-ok(<reason>)` "
                f"if deliberate)"))
    return out


# ---------------------------------------------------------------------------
# R5 — whole-program release/acquire pairing (per-field order matrix)
# ---------------------------------------------------------------------------

_PAIRS_WITH_RE = re.compile(r"pairs\s+with\s+(\w+)")


def check_r5(models: List[FileModel], cfg: dict) -> List[Finding]:
    out: List[Finding] = []
    r5 = cfg.get("r5", {})
    exempt = r5.get("exempt_paths", [])

    # The order matrix: field -> every atomic site targeting it, across
    # the whole analyzed set (publishers and readers usually live in
    # different files, so per-file grouping would see only half the pair).
    by_field: Dict[str, List[Tuple[FileModel, object]]] = {}
    for m in models:
        if _path_matches(m.rel, exempt):
            continue
        for op in m.atomic_ops:
            if op.field:
                by_field.setdefault(op.field, []).append((m, op))

    for field in sorted(by_field):
        sites = by_field[field]
        # Explicit release-side writes (seq_cst writes are audited by R1's
        # justification machinery instead, and defaulted orders would make
        # every write-only counter fire).
        expl_release_writes = [
            (m, op) for m, op in sites
            if op.orders and op.write_order() in {"release", "acq_rel"}]
        acquire_readers = [
            (m, op) for m, op in sites if op.read_order() in ACQUIRE_SIDE]
        expl_acquire_reads = [
            (m, op) for m, op in sites
            if op.orders and op.read_order() in {"acquire", "consume"}]
        release_writers = [
            (m, op) for m, op in sites if op.write_order() in RELEASE_SIDE]
        any_writes = [
            (m, op) for m, op in sites if op.write_order() is not None]

        # (a) release store nobody acquires: the release fence orders
        # nothing and the readers see unsynchronized data.
        if expl_release_writes and not acquire_readers:
            m, op = expl_release_writes[0]
            anns = m.annotations_for_line(op.line)
            if not suppressed(anns, "R5", "pairing"):
                out.append(_mk(
                    m, "R5", op.line,
                    f"release-side {op.op}() on atomic field `{field}` has "
                    f"no acquire-side reader anywhere in the analyzed set; "
                    f"the release order synchronizes nothing (annotate "
                    f"`// catslint: pairing(<reason>)` if the pair lives "
                    f"outside the analyzed set)"))

        # (b) acquire load with writers but no release-side writer: the
        # acquire can never synchronize with the stores it observes.
        if expl_acquire_reads and any_writes and not release_writers:
            m, op = expl_acquire_reads[0]
            anns = m.annotations_for_line(op.line)
            if not suppressed(anns, "R5", "pairing"):
                out.append(_mk(
                    m, "R5", op.line,
                    f"acquire-side {op.op}() on atomic field `{field}` but "
                    f"every write to it is weaker than release; the acquire "
                    f"cannot synchronize-with any store (annotate "
                    f"`// catslint: pairing(<reason>)` if deliberate)"))

        # (c) relaxed store publishing a pointer: readers can reach the
        # pointee before its initialization is visible.  Pre-publication
        # initialization of a node still private to this function is
        # exempt (the publishing CAS/store provides the release edge).
        for m, op in sites:
            if op.write_order() != "relaxed" or not op.stores_pointer:
                continue
            if op.receiver_unpublished:
                continue
            anns = m.annotations_for_line(op.line)
            if suppressed(anns, "R5", "pairing") or \
                    suppressed(anns, "R5", "pre-publish"):
                continue
            out.append(_mk(
                m, "R5", op.line,
                f"relaxed {op.op}() publishes a pointer through atomic "
                f"field `{field}`; a reader can dereference the node "
                f"before its fields are visible — use release (or annotate "
                f"`// catslint: pre-publish` if the object is still "
                f"private)"))

    # (d) seq_cst justifications claiming a fence pair with a partner site
    # that no longer exists: the justification has rotted.
    valid_partners: Set[str] = set(by_field)
    for m in models:
        for f in m.funcs:
            valid_partners.add(f.base_name)
    for m in models:
        if _path_matches(m.rel, exempt):
            continue
        for line in sorted(m.annotations):
            for a in m.annotations[line]:
                if a.directive != "seq_cst" or not a.reason:
                    continue
                match = _PAIRS_WITH_RE.search(a.reason)
                if not match:
                    continue
                partner = match.group(1)
                if partner not in valid_partners:
                    out.append(_mk(
                        m, "R5", a.line,
                        f"seq_cst justification claims it `pairs with "
                        f"{partner}`, but no function or atomic field of "
                        f"that name exists in the analyzed set; update the "
                        f"justification"))
    return out


# ---------------------------------------------------------------------------
# R6 — immutability after publication
# ---------------------------------------------------------------------------

def _escape_closures(model: FileModel) -> Tuple[Set[str], Set[str]]:
    """(publishers, mutators): functions that atomically publish /
    non-atomically mutate a pointer parameter, closed over the per-TU
    call graph (f passing its param to a publisher is itself one)."""
    publishers: Set[str] = set()
    mutators: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for f in model.funcs:
            for ev in f.events:
                if ev.var not in f.ptr_params:
                    continue
                if ev.kind == "publish" or (
                        ev.kind == "call_arg" and ev.aux in publishers):
                    if f.base_name not in publishers:
                        publishers.add(f.base_name)
                        changed = True
                if ev.kind == "field_write" or (
                        ev.kind == "call_arg" and ev.aux in mutators):
                    if f.base_name not in mutators:
                        mutators.add(f.base_name)
                        changed = True
    return publishers, mutators


def check_r6(model: FileModel, cfg: dict) -> List[Finding]:
    out: List[Finding] = []
    r6 = cfg.get("r6", {})
    if _path_matches(model.rel, r6.get("exempt_paths", [])):
        return out
    node_types = set(r6.get("node_types",
                            cfg.get("r3", {}).get("node_types", [])))
    if not node_types:
        return out
    publishers, mutators = _escape_closures(model)

    for f in model.funcs:
        tracked = set(f.node_vars)
        if not tracked:
            continue
        published: Set[str] = set()
        for ev in f.events:
            if ev.var not in tracked:
                continue
            if ev.kind == "field_write" and ev.var in published:
                anns = model.annotations_for_line(ev.line) + \
                    model.annotations_for_func(f)
                if suppressed(anns, "R6", "pre-publish"):
                    continue
                out.append(_mk(
                    model, "R6", ev.line,
                    f"non-atomic write `{ev.var}->{ev.aux} = ...` after "
                    f"`{ev.var}` was published by an atomic store/CAS in "
                    f"{f.name}(); published nodes are immutable (annotate "
                    f"`// catslint: pre-publish(<reason>)` if the write is "
                    f"ordered before the edge that makes it reachable)"))
            elif ev.kind == "call_arg":
                if ev.aux in mutators and ev.var in published:
                    anns = model.annotations_for_line(ev.line) + \
                        model.annotations_for_func(f)
                    if not suppressed(anns, "R6", "pre-publish"):
                        out.append(_mk(
                            model, "R6", ev.line,
                            f"`{ev.var}` was published by an atomic "
                            f"store/CAS in {f.name}() and is then passed "
                            f"to `{ev.aux}()`, which writes its fields "
                            f"non-atomically; published nodes are "
                            f"immutable (annotate `// catslint: "
                            f"pre-publish(<reason>)` if deliberate)"))
                if ev.aux in publishers:
                    published.add(ev.var)
            elif ev.kind == "publish":
                published.add(ev.var)
    return out


# ---------------------------------------------------------------------------
# R7 — guard lifetime / ABA generations
# ---------------------------------------------------------------------------

def check_r7(model: FileModel, cfg: dict) -> List[Finding]:
    out: List[Finding] = []
    if _path_matches(model.rel,
                     cfg.get("r7", {}).get("exempt_paths", [])):
        return out
    for f in model.funcs:
        binding: Dict[str, int] = {}  # var -> guard generation it was
        #                               loaded under (0 = unguarded, R2's
        #                               problem, not R7's)
        open_gens: Set[int] = set()
        for ev in f.events:
            if ev.kind == "guard_open":
                open_gens.add(int(ev.aux))
            elif ev.kind == "guard_close":
                open_gens.discard(int(ev.aux))
            elif ev.kind == "shared_load":
                gen = int(ev.aux)
                if gen > 0:
                    binding[ev.var] = gen
                else:
                    binding.pop(ev.var, None)
            elif ev.kind in {"deref", "use"}:
                gen = binding.get(ev.var, 0)
                if gen <= 0 or gen in open_gens:
                    continue
                anns = model.annotations_for_line(ev.line) + \
                    model.annotations_for_func(f)
                if suppressed(anns, "R7", "pinned"):
                    continue
                what = "dereferenced" if ev.kind == "deref" else "returned"
                out.append(_mk(
                    model, "R7", ev.line,
                    f"`{ev.var}` was loaded under a guard whose scope has "
                    f"ended, but is {what} here in {f.name}(); the node "
                    f"may already be reclaimed (annotate `// catslint: "
                    f"pinned(<reason>)` if the pointer is kept alive "
                    f"another way)"))
            elif ev.kind == "cas_expected":
                gen = binding.get(ev.var, 0)
                if gen <= 0 or int(ev.aux) == gen:
                    continue
                anns = model.annotations_for_line(ev.line) + \
                    model.annotations_for_func(f)
                if suppressed(anns, "R7", "pinned"):
                    continue
                out.append(_mk(
                    model, "R7", ev.line,
                    f"CAS in {f.name}() uses `{ev.var}` as its expected "
                    f"value, but `{ev.var}` was read under a different "
                    f"guard generation; the address may have been "
                    f"reclaimed and reused (ABA) — re-read it under the "
                    f"current guard or annotate `// catslint: "
                    f"pinned(<reason>)`"))
    return out


# ---------------------------------------------------------------------------
# R0 — dangling annotations (runs last; consumes the `used` marks)
# ---------------------------------------------------------------------------

def _mark_guard_seeds(model: FileModel) -> None:
    """Marks under-guard/quiescent annotations used when they anchor R2
    coverage: guard_coverage() reads them as seeds without going through
    suppressed(), so a seed whose callee closure really reaches shared
    loads must not be reported as dangling."""
    funcs: Dict[str, FuncInfo] = {}
    for f in model.funcs:
        funcs.setdefault(f.base_name, f)
    callees: Dict[str, Set[str]] = {}
    for f in model.funcs:
        callees.setdefault(f.base_name, set()).update(
            c for c, _ in f.calls if c in funcs)

    memo: Dict[str, bool] = {}

    def closure_has_loads(name: str, trail: Set[str]) -> bool:
        if name in memo:
            return memo[name]
        if name in trail:
            return False
        trail.add(name)
        f = funcs[name]
        ok = bool(f.shared_load_lines) or any(
            closure_has_loads(c, trail) for c in callees.get(name, ()))
        trail.discard(name)
        memo[name] = ok
        return ok

    for f in model.funcs:
        anns = [a for a in model.annotations_for_func(f)
                if a.directive in {"under-guard", "quiescent"}]
        if anns and closure_has_loads(f.base_name, set()):
            for a in anns:
                a.used = True


def check_r0(models: List[FileModel], cfg: dict) -> List[Finding]:
    out: List[Finding] = []
    r0 = cfg.get("r0", {})
    r2 = cfg.get("r2", {})
    for m in models:
        if _path_matches(m.rel, r2.get("paths", [])) and \
                not _path_matches(m.rel, r2.get("exempt_paths", [])):
            _mark_guard_seeds(m)
    for m in models:
        if _path_matches(m.rel, r0.get("exempt_paths", [])):
            continue
        for line in sorted(m.annotations):
            for a in m.annotations[line]:
                if a.used:
                    continue
                spec = a.directive
                if a.directive == "off" and a.rules:
                    spec += "(" + ",".join(a.rules) + ")"
                out.append(Finding(
                    rule="R0", file=m.rel, line=a.raw_line,
                    message=(
                        f"dangling annotation `// catslint: {spec}`: it no "
                        f"longer suppresses or justifies any finding; "
                        f"remove it (stale justifications hide real "
                        f"regressions)"),
                    fingerprint=fingerprint(
                        "R0", m.rel, _line_text(m, a.raw_line))))
    return out


_CHECKS = {"R1": check_r1, "R2": check_r2, "R3": check_r3, "R4": check_r4}
_PER_FILE = {"R1": check_r1, "R2": check_r2, "R3": check_r3,
             "R4": check_r4, "R6": check_r6, "R7": check_r7}


def run_rules(model: FileModel, cfg: dict,
              enabled: Set[str]) -> List[Finding]:
    """Single-file evaluation of the per-file rules (legacy entry point;
    the driver uses run_all, which adds R5/R0 and whole-set context)."""
    out: List[Finding] = []
    for rule in ("R1", "R2", "R3", "R4"):
        if rule in enabled:
            out.extend(_CHECKS[rule](model, cfg))
    return sorted(out, key=lambda f: (f.file, f.line, f.rule))


def run_all(models: List[FileModel], cfg: dict,
            enabled: Set[str]) -> List[Finding]:
    """Evaluates every rule over the whole analyzed set.

    All rules always RUN — they leave `used` marks on the annotations
    they consume, which R0 needs to be accurate — and `enabled` only
    filters which findings are emitted.
    """
    out: List[Finding] = []
    for m in models:
        for rule in ("R1", "R2", "R3", "R4", "R6", "R7"):
            found = _PER_FILE[rule](m, cfg)
            if rule in enabled:
                out.extend(found)
    found = check_r5(models, cfg)
    if "R5" in enabled:
        out.extend(found)
    found = check_r0(models, cfg)  # last: consumes the used marks
    if "R0" in enabled:
        out.extend(found)
    return sorted(out, key=lambda f: (f.file, f.line, f.rule))
