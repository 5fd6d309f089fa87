"""Shared analysis model for cats-lint.

The token engine (token_engine.py) lowers each source file into this fact
set; the rules in rules.py only ever see these types, so they never touch
C++ text directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Set, Tuple

# Atomic member functions R1 cares about.  wait/notify_one/notify_all are
# excluded: they have no memory-order argument worth auditing here.
ATOMIC_OPS = {
    "load",
    "store",
    "exchange",
    "compare_exchange_weak",
    "compare_exchange_strong",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
}

# Annotation directive names and whether they require a (reason).
DIRECTIVES = {
    "seq_cst": True,        # R1: deliberate seq_cst, reason required
    "under-guard": False,   # R2: callers guarantee an EBR guard
    "quiescent": True,      # R2: single-threaded context (ctor/teardown/test)
    "direct-delete": True,  # R3: delete outside the reclamation domain
    "blocking-ok": True,    # R4: deliberate blocking call, reason required
    "pairing": True,        # R5: deliberate one-sided order, reason required
    "pre-publish": False,   # R5/R6: object not yet reachable (builder code),
    #                         or a write ordered before the edge that makes
    #                         it reachable (reason recommended)
    "pinned": True,         # R7: pointer outlives the guard (refcount,
    #                         immortal, quiescent), reason required
    "off": False,           # generic per-line rule suppression: off(R1,R3)
}


@dataclasses.dataclass
class Annotation:
    directive: str
    reason: str  # empty when the directive takes no reason
    rules: Tuple[str, ...]  # for "off": which rules are suppressed
    line: int  # effective code line the annotation applies to
    raw_line: int  # line the comment physically sits on
    # Set by the rules when this annotation suppressed (or justified) a
    # would-be finding; annotations still False afterwards are dangling (R0).
    used: bool = dataclasses.field(default=False, compare=False)


# Memory-order names that make a WRITE visible to an acquire-side reader.
RELEASE_SIDE = {"release", "acq_rel", "seq_cst"}
# Memory-order names that let a READ synchronize with a release-side write.
ACQUIRE_SIDE = {"acquire", "acq_rel", "seq_cst", "consume"}

# Ops that write the atomic (store side of the R5 matrix).
WRITE_OPS = {"store", "exchange", "compare_exchange_weak",
             "compare_exchange_strong", "fetch_add", "fetch_sub",
             "fetch_and", "fetch_or", "fetch_xor"}
# Ops that read the atomic (load side of the R5 matrix).
READ_OPS = {"load", "exchange", "compare_exchange_weak",
            "compare_exchange_strong", "fetch_add", "fetch_sub",
            "fetch_and", "fetch_or", "fetch_xor"}


@dataclasses.dataclass
class AtomicOp:
    file: str
    line: int
    op: str  # one of ATOMIC_OPS
    receiver: str  # source text of the object expression, best effort
    has_explicit_order: bool
    explicit_seq_cst: bool
    enclosing: Optional[str]  # enclosing function name, best effort
    # Member/variable name the op targets (last component of the receiver);
    # the R5 grouping key.  Empty when the receiver could not be resolved.
    field: str = ""
    # Explicit memory-order names in argument-position order, e.g.
    # ("release",) or ("acq_rel", "acquire") for a CAS.  Empty when the op
    # relies on the defaulted seq_cst.
    orders: Tuple[str, ...] = ()
    # The stored/desired value looks like a pointer (a `new` expression or a
    # pointer-typed local/parameter).  Only meaningful for write ops.
    stores_pointer: bool = False
    # The receiver object was allocated with `new` in this function and has
    # not escaped (no atomic publish, no call argument) before this op: the
    # op is pre-publication initialisation.
    receiver_unpublished: bool = False

    def effective_orders(self) -> Tuple[str, ...]:
        """Order names with the defaulted seq_cst made explicit."""
        return self.orders if self.orders else ("seq_cst",)

    def write_order(self) -> Optional[str]:
        """The order governing this op's write, None for pure loads."""
        if self.op not in WRITE_OPS:
            return None
        return self.effective_orders()[0]

    def read_order(self) -> Optional[str]:
        """The order governing this op's read, None for pure stores."""
        if self.op not in READ_OPS:
            return None
        return self.effective_orders()[0]


@dataclasses.dataclass
class DeleteOp:
    file: str
    line: int
    target_type: Optional[str]  # resolved pointee type name, best effort
    target_expr: str
    is_delete_this: bool
    enclosing: Optional[str]
    enclosing_class: Optional[str]
    in_operator_delete: bool  # inside a (poisoning) operator delete


@dataclasses.dataclass
class FlowEvent:
    """One step of the per-function dataflow stream (R5-R7).

    Events appear in source (token) order, which stands in for program
    order: the rules sweep the stream once, tracking what is published,
    which guard generations are open, and where each pointer was read.

    kinds:
      new          var allocated with `new <node type>`; aux = type name
      publish      var passed as the stored/desired value of an atomic
                   store/exchange/CAS; aux = target field
      field_write  plain (non-atomic-call) member write `var->aux = ...`
      call_arg     var passed whole as an argument; aux = callee base name
      guard_open   an EBR Guard is constructed;
                   aux = generation number (unique per function)
      guard_close  that guard's scope ends; aux = generation number
      shared_load  var bound from an atomic load of a shared field;
                   aux = generation of the innermost open guard ("0" = none)
      deref        var dereferenced (var-> / var.)
      use          var escapes (returned)
      cas_expected var passed as the expected value of a CAS;
                   aux = generation of the innermost open guard
    """
    kind: str
    var: str
    aux: str
    line: int


@dataclasses.dataclass
class FuncInfo:
    name: str  # qualified, best effort (e.g. BasicLfcaTree::do_update)
    base_name: str  # last component, used for per-TU call-graph matching
    file: str
    def_line: int
    end_line: int
    creates_guard: bool = False
    # Lines holding loads of shared atomic pointers (R2 trigger sites).
    shared_load_lines: List[int] = dataclasses.field(default_factory=list)
    calls: List[Tuple[str, int]] = dataclasses.field(default_factory=list)
    # (token, line) pairs of blocking primitives seen in the body (R4).
    blocking: List[Tuple[str, int]] = dataclasses.field(default_factory=list)
    # Dataflow stream for R5-R7, in source order.
    events: List[FlowEvent] = dataclasses.field(default_factory=list)
    # Pointer-typed parameters: name -> pointee type name (best effort).
    ptr_params: Dict[str, str] = dataclasses.field(default_factory=dict)
    # Local pointer variables of reclaimable node/container types (R6).
    node_vars: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class FileModel:
    path: str  # path as analyzed (absolute or repo-relative)
    rel: str  # repo-relative path used in reports and fingerprints
    atomic_ops: List[AtomicOp] = dataclasses.field(default_factory=list)
    delete_ops: List[DeleteOp] = dataclasses.field(default_factory=list)
    funcs: List[FuncInfo] = dataclasses.field(default_factory=list)
    # effective code line -> annotations applying to that line
    annotations: Dict[int, List[Annotation]] = dataclasses.field(
        default_factory=dict)
    # line number -> raw source text (for fingerprints)
    lines: Dict[int, str] = dataclasses.field(default_factory=dict)

    def annotations_for_line(self, line: int) -> List[Annotation]:
        return self.annotations.get(line, [])

    def annotations_for_func(self, f: FuncInfo) -> List[Annotation]:
        out: List[Annotation] = []
        for line, anns in self.annotations.items():
            if f.def_line <= line <= f.end_line:
                out.extend(anns)
        return out


@dataclasses.dataclass
class Finding:
    rule: str  # R0..R7
    file: str  # repo-relative
    line: int
    message: str
    fingerprint: str = ""

    def render(self) -> str:
        return (f"{self.file}:{self.line}: {self.rule}: {self.message} "
                f"[{self.fingerprint}]")


def fingerprint(rule: str, rel: str, line_text: str) -> str:
    """Content-based fingerprint, stable across unrelated line drift."""
    norm = " ".join(line_text.split())
    h = hashlib.sha1(f"{rule}|{rel}|{norm}".encode()).hexdigest()
    return h[:16]


def suppressed(anns: List[Annotation], rule: str,
               directive: str) -> Optional[Annotation]:
    """Returns the annotation that suppresses `rule`, if any.

    A finding is suppressed either by the rule's dedicated directive (with
    its reason) or by a generic off(<rule>) entry.  The winning annotation
    is marked used, which is what keeps it off R0's dangling list.
    """
    for a in anns:
        if a.directive == directive:
            a.used = True
            return a
        if a.directive == "off" and (not a.rules or rule in a.rules):
            a.used = True
            return a
    return None


def func_directives(model: FileModel, f: FuncInfo) -> Set[str]:
    return {a.directive for a in model.annotations_for_func(f)}
