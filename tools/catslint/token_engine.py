"""The cats-lint frontend: lowers C++ source to the FileModel via lexical
analysis (no compiler needed).

Scope and honesty: this engine understands the subset of C++ this repo is
written in — namespaces, classes with inline members, free/member function
definitions (templates included), constructor initializer lists, lambdas
(attributed to the enclosing function).  It resolves delete-target types
from local declarations, parameters, `new` expressions and casts, and it
builds a per-file call graph by callee base name.  Anything it cannot
resolve it leaves unflagged (conservative).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

import cpptok
from model import (ATOMIC_OPS, AtomicOp, DeleteOp, FileModel, FlowEvent,
                   FuncInfo)

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>="}

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "catch", "new", "delete", "throw", "case", "do", "else",
    "static_assert", "alignas", "co_await", "co_return", "co_yield",
    "assert", "typeid", "goto",
}
_POST_PAREN_QUALIFIERS = {"const", "noexcept", "override", "final",
                          "mutable", "try", "requires"}
_TYPE_KEYWORDS = {
    "const", "constexpr", "static", "inline", "typename", "volatile",
    "unsigned", "signed", "struct", "class", "auto", "register", "extern",
    "thread_local", "friend", "virtual", "explicit",
}


class _FnCtx:
    """Transient per-function dataflow state for the body scan."""

    def __init__(self, symbols: Dict[str, str],
                 order_params: Optional[Set[str]] = None):
        self.symbols = symbols  # var -> pointee type (params + locals)
        self.order_params = order_params or set()  # memory_order params
        self.newed: Set[str] = set()  # vars allocated with `new` here
        self.escaped: Set[str] = set()  # passed to a call / stored away
        self.published: Set[str] = set()  # value argument of an atomic write
        self.loaded: Set[str] = set()  # bound from a shared atomic load
        self.guards: List[Tuple[int, int]] = []  # (generation, brace depth)
        self.gen_counter = 0
        self.depth = 0

    def cur_gen(self) -> int:
        return self.guards[-1][0] if self.guards else 0


class _Scanner:
    def __init__(self, toks: List[cpptok.Token], model: FileModel,
                 cfg: dict):
        self.toks = toks
        self.model = model
        self.cfg = cfg
        self.guard_types = set(cfg.get("guard_types", []))
        self.blocking_ids = set(cfg.get("blocking_identifiers", []))
        self.shared_fields = set(cfg.get("shared_atomic_fields", []))
        self.node_types = set(
            cfg.get("r6", {}).get("node_types",
                                  cfg.get("r3", {}).get("node_types", [])))

    # -- token helpers ----------------------------------------------------

    def match_forward(self, i: int, open_t: str, close_t: str) -> int:
        """Index of the token matching toks[i] == open_t, or len(toks)."""
        depth = 0
        n = len(self.toks)
        while i < n:
            t = self.toks[i][1]
            if t == open_t:
                depth += 1
            elif t == close_t:
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        return n - 1

    def match_back(self, i: int, close_t: str, open_t: str) -> int:
        depth = 0
        while i >= 0:
            t = self.toks[i][1]
            if t == close_t:
                depth += 1
            elif t == open_t:
                depth -= 1
                if depth == 0:
                    return i
            i -= 1
        return 0

    def _skip_template_back(self, i: int) -> int:
        """Given toks[i] == '>', index before the matching '<'."""
        depth = 0
        while i >= 0:
            t = self.toks[i][1]
            if t == ">":
                depth += 1
            elif t == "<":
                depth -= 1
                if depth == 0:
                    return i - 1
            i -= 1
        return -1

    def _name_chain_back(self, i: int) -> Tuple[Optional[str], int]:
        """Reads a (possibly qualified) name ending at toks[i].

        Returns (qualified_name, index_before_chain).  Handles A::B<T>::f,
        ~X, and operator <symbol>/new/delete.
        """
        parts: List[str] = []
        while i >= 0:
            kind, text, _ = self.toks[i]
            if text == ">":
                i = self._skip_template_back(i)
                continue
            if kind == "id":
                name = text
                if i >= 1 and self.toks[i - 1][1] == "~":
                    name = "~" + name
                    i -= 1
                if i >= 1 and self.toks[i - 1][1] == "operator":
                    # operator delete / operator new as a declared name
                    name = "operator " + text
                    i -= 1
                parts.insert(0, name)
                i -= 1
                if i >= 0 and self.toks[i][1] == "::":
                    i -= 1
                    continue
                break
            break
        if not parts:
            return None, i
        return "::".join(parts), i

    # -- function discovery ------------------------------------------------

    def run(self) -> None:
        i = 0
        n = len(self.toks)
        class_stack: List[str] = []
        brace_kinds: List[str] = []  # parallel to open braces: ns/class/other
        while i < n:
            kind, text, line = self.toks[i]
            if text == "enum":
                # skip `enum [class] name [: type] { ... }` entirely
                j = i + 1
                while j < n and self.toks[j][1] != "{":
                    if self.toks[j][1] in {";", "}"}:
                        break
                    j += 1
                if j < n and self.toks[j][1] == "{":
                    i = self.match_forward(j, "{", "}") + 1
                else:
                    i = j + 1
                continue
            if text == "{":
                cls = self._classify_open_brace(i, class_stack)
                if cls == "func":
                    i = self._consume_function(i, class_stack)
                    continue
                brace_kinds.append(cls)
                i += 1
                continue
            if text == "}":
                if brace_kinds:
                    k = brace_kinds.pop()
                    if k == "class" and class_stack:
                        class_stack.pop()
                i += 1
                continue
            i += 1

    def _classify_open_brace(self, i: int,
                             class_stack: List[str]) -> str:
        """Classifies the '{' at index i: ns | class | func | other.

        Side effect: pushes the class name for 'class'.
        """
        j = i - 1
        if j < 0:
            return "other"
        # namespace NAME { / namespace {
        if self.toks[j][1] == "namespace":
            return "ns"
        if self.toks[j][0] == "id" and j >= 1 and \
                self.toks[j - 1][1] == "namespace":
            return "ns"
        # class/struct [attr] NAME [final] [: bases] {
        k = j
        steps = 0
        while k >= 0 and steps < 64:
            t = self.toks[k][1]
            if t in {";", "}", "{", ")"}:
                break
            if t in {"class", "struct", "union"}:
                # find the name right after the keyword; for an
                # out-of-class definition (`struct Outer::Inner {`) the
                # class being defined is the LAST component
                m = k + 1
                while m < i and self.toks[m][0] != "id":
                    m += 1
                while m + 2 < i and self.toks[m + 1][1] == "::" and \
                        self.toks[m + 2][0] == "id":
                    m += 2
                name = self.toks[m][1] if m < i else "<anon>"
                class_stack.append(name)
                return "class"
            k -= 1
            steps += 1
        # function body: '{' preceded by ')' modulo qualifiers, trailing
        # return types and constructor initializer lists.
        k = j
        while k >= 0:
            t = self.toks[k][1]
            if self.toks[k][0] == "id" and t in _POST_PAREN_QUALIFIERS:
                k -= 1
                continue
            if t == ">":  # e.g. noexcept(...) -> T<...>, requires-clauses
                k = self._skip_template_back(k)
                continue
            if t == ")":
                open_idx = self.match_back(k, ")", "(")
                name, _ = self._name_chain_back(open_idx - 1)
                if name is None:
                    return "other"
                base = name.split("::")[-1]
                if base in _KEYWORDS:
                    return "other"
                # constructor initializer-list: walk back over `name(..),`
                # units to the ':' and re-anchor on the signature's ')'
                prev = self._ctor_init_anchor(open_idx)
                if prev is not None:
                    open_idx = self.match_back(prev, ")", "(")
                    name, _ = self._name_chain_back(open_idx - 1)
                    if name is None:
                        return "other"
                return "func"
            if self.toks[k][0] == "id" or t in {"::", "*", "&", "&&"}:
                # possibly a trailing return type: scan further back for ->
                m = k
                steps2 = 0
                while m >= 0 and steps2 < 32:
                    tm = self.toks[m][1]
                    if tm == "->":
                        k = m - 1
                        break
                    if self.toks[m][0] == "id" or tm in {"::", "*", "&",
                                                         ">", "<", ","}:
                        m -= 1
                        steps2 += 1
                        continue
                    return "other"
                else:
                    return "other"
                if m < 0 or steps2 >= 32:
                    return "other"
                continue
            return "other"
        return "other"

    def _ctor_init_anchor(self, open_idx: int) -> Optional[int]:
        """If toks[open_idx] is the '(' of an init-list member, walks the
        list back and returns the index of the signature's ')'."""
        idx = open_idx
        while True:
            name, before = self._name_chain_back(idx - 1)
            if name is None:
                return None
            if before < 0:
                return None
            sep = self.toks[before][1]
            if sep == ",":
                # previous unit: `name(...)` or `name{...}`
                close = before
                while close >= 0 and self.toks[close][1] not in {")", "}"}:
                    close -= 1
                if close < 0:
                    return None
                if self.toks[close][1] == ")":
                    idx = self.match_back(close, ")", "(")
                else:
                    idx = self.match_back(close, "}", "{")
                continue
            if sep == ":":
                prev = before - 1
                while prev >= 0 and self.toks[prev][0] == "id" and \
                        self.toks[prev][1] in _POST_PAREN_QUALIFIERS:
                    prev -= 1
                if prev >= 0 and self.toks[prev][1] == ")":
                    return prev
                return None
            return None

    # -- function body analysis -------------------------------------------

    def _consume_function(self, brace_idx: int,
                          class_stack: List[str]) -> int:
        end_idx = self.match_forward(brace_idx, "{", "}")
        # Re-derive the name and signature span.
        k = brace_idx - 1
        while k >= 0 and self.toks[k][1] != ")":
            if self.toks[k][1] == ">":
                k = self._skip_template_back(k)
                continue
            k -= 1
        open_idx = self.match_back(k, ")", "(")
        anchor = self._ctor_init_anchor(open_idx)
        if anchor is not None:
            k = anchor
            open_idx = self.match_back(k, ")", "(")
        name, _ = self._name_chain_back(open_idx - 1)
        qual = name or "<anon>"
        if class_stack and "::" not in qual:
            qual = "::".join(class_stack) + "::" + qual
        base = qual.split("::")[-1]
        f = FuncInfo(name=qual, base_name=base, file=self.model.rel,
                     def_line=self.toks[open_idx][2],
                     end_line=self.toks[end_idx][2])
        symbols = self._param_types(open_idx, k)
        f.ptr_params = dict(symbols)
        order_params = self._order_params(open_idx, k)
        # Constructor initializer lists run code too (atomic ops, calls):
        # start the scan at the signature's ')' when one is present.
        start = k if anchor is not None else brace_idx
        self._scan_body(f, start, end_idx, symbols, class_stack,
                        order_params)
        f.node_vars = sorted(v for v, t in symbols.items()
                             if t in self.node_types)
        self.model.funcs.append(f)
        return end_idx + 1

    def _param_types(self, open_idx: int, close_idx: int) -> Dict[str, str]:
        """name -> pointee type for `T* name`-shaped parameters."""
        out: Dict[str, str] = {}
        i = open_idx + 1
        while i < close_idx:
            if self.toks[i][1] == "*" and i + 1 < close_idx and \
                    self.toks[i + 1][0] == "id":
                # walk back over const/type chain for the last real type id
                j = i - 1
                while j > open_idx and self.toks[j][1] == "const":
                    j -= 1
                if self.toks[j][1] == ">":
                    j = self._skip_template_back(j)
                if j > open_idx and self.toks[j][0] == "id" and \
                        self.toks[j][1] not in _TYPE_KEYWORDS:
                    nxt = self.toks[i + 1][1]
                    if nxt not in _TYPE_KEYWORDS:
                        out[nxt] = self.toks[j][1]
            i += 1
        return out

    def _order_params(self, open_idx: int, close_idx: int) -> Set[str]:
        """Names of `std::memory_order name` parameters.  Wrapper layers
        (cats::atomic in src/common/catomic.hpp) forward their caller's
        order through such a parameter; an op passing one has an explicit
        — forwarded — order, not a defaulted seq_cst."""
        out: Set[str] = set()
        i = open_idx + 1
        while i < close_idx:
            if self.toks[i][1] == "memory_order" and \
                    self.toks[i + 1][0] == "id":
                out.add(self.toks[i + 1][1])
            i += 1
        return out

    def _scan_body(self, f: FuncInfo, start: int, end: int,
                   symbols: Dict[str, str],
                   class_stack: List[str],
                   order_params: Optional[Set[str]] = None) -> None:
        ctx = _FnCtx(symbols, order_params)
        i = start
        while i < end:
            kind, text, line = self.toks[i]
            # Brace depth drives guard-scope lifetimes (R7): a guard dies
            # when its declaring block closes.
            if text == "{":
                ctx.depth += 1
                i += 1
                continue
            if text == "}":
                ctx.depth -= 1
                while ctx.guards and ctx.guards[-1][1] > ctx.depth:
                    gen, _ = ctx.guards.pop()
                    f.events.append(
                        FlowEvent("guard_close", "", str(gen), line))
                i += 1
                continue
            if kind != "id" and text != "delete":
                i += 1
                continue
            nxt = self.toks[i + 1][1] if i + 1 < end else ""
            prev = self.toks[i - 1][1] if i > start else ""

            # delete expressions ------------------------------------------
            if text == "delete":
                if prev == "operator":
                    i += 1
                    continue
                if prev == "=":  # `= delete;`
                    i += 1
                    continue
                i = self._record_delete(f, i, end, symbols, class_stack)
                continue

            # local declarations: `T* name`, `auto* name = new T`,
            # `auto* name = static_cast<T*>` ------------------------------
            if text == "auto" and nxt == "*" and i + 2 < end and \
                    self.toks[i + 2][0] == "id":
                var = self.toks[i + 2][1]
                j = i + 3
                if j < end and self.toks[j][1] == "=":
                    t = self._new_or_cast_type(j + 1, end)
                    if t:
                        symbols[var] = t
                        if self.toks[j + 1][1] == "new":
                            ctx.newed.add(var)
                            if t in self.node_types:
                                f.events.append(
                                    FlowEvent("new", var, t, line))
                i += 3
                continue
            if kind == "id" and text not in _TYPE_KEYWORDS and \
                    text not in _KEYWORDS and nxt == "*" and \
                    i + 2 < end and self.toks[i + 2][0] == "id" and \
                    self.toks[i + 2][1] not in _TYPE_KEYWORDS and \
                    i + 3 < end and self.toks[i + 3][1] in {"=", ";", ","}:
                var = self.toks[i + 2][1]
                symbols[var] = text
                if self.toks[i + 3][1] == "=" and i + 4 < end and \
                        self.toks[i + 4][1] == "new":
                    ctx.newed.add(var)
                    if text in self.node_types:
                        f.events.append(FlowEvent("new", var, text, line))
                i += 3
                continue

            # guard creation ----------------------------------------------
            if text in self.guard_types and i + 1 < end and \
                    self.toks[i + 1][0] == "id" and i + 2 < end and \
                    self.toks[i + 2][1] in {"(", "{"}:
                f.creates_guard = True
                ctx.gen_counter += 1
                ctx.guards.append((ctx.gen_counter, ctx.depth))
                f.events.append(
                    FlowEvent("guard_open", "", str(ctx.gen_counter), line))
                i += 2
                continue

            # blocking primitives -----------------------------------------
            if text in self.blocking_ids:
                f.blocking.append((text, line))
                i += 1
                continue

            # pointer-variable uses (R6/R7 events) ------------------------
            if text == "return" and i + 1 < end and \
                    self.toks[i + 1][0] == "id":
                rv = self.toks[i + 1][1]
                if rv in ctx.loaded:
                    f.events.append(FlowEvent("use", rv, "", line))
                if rv in ctx.newed:
                    ctx.escaped.add(rv)
                i += 1
                continue
            if nxt in {"->", "."} and text in symbols:
                if text in ctx.loaded:
                    f.events.append(FlowEvent("deref", text, "", line))
                if i + 3 < end and self.toks[i + 2][0] == "id" and \
                        self.toks[i + 3][1] in _ASSIGN_OPS:
                    f.events.append(
                        FlowEvent("field_write", text,
                                  self.toks[i + 2][1], line))
                i += 1
                continue
            if prev == "=" and text in ctx.newed and \
                    nxt in {";", ","}:
                # the fresh node's address is stored somewhere: it escaped
                # — unless the destination is a field of another node that
                # is itself still private (`lb->parent = r` while both are
                # pre-publication), which keeps the object graph private.
                if not (i - 4 >= start and
                        self.toks[i - 2][0] == "id" and
                        self.toks[i - 3][1] in {"->", "."} and
                        self.toks[i - 4][1] in ctx.newed):
                    ctx.escaped.add(text)
                i += 1
                continue

            # calls -------------------------------------------------------
            call_paren = -1
            if nxt == "(" and text not in _KEYWORDS:
                call_paren = i + 1
            elif nxt == "<" and text not in _KEYWORDS and \
                    text not in _TYPE_KEYWORDS:
                # explicit template arguments: name<...>(  — skip the
                # balanced angle brackets (bounded, to avoid treating a
                # less-than comparison as a template)
                j = i + 1
                depth = 0
                steps = 0
                while j < end and steps < 24:
                    t = self.toks[j][1]
                    if t == "<":
                        depth += 1
                    elif t == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    elif t in {";", "{", "}"}:
                        break
                    j += 1
                    steps += 1
                if j < end and self.toks[j][1] == ">" and \
                        j + 1 < end and self.toks[j + 1][1] == "(":
                    call_paren = j + 1
            if call_paren >= 0:
                if prev in {".", "->"} and text in ATOMIC_OPS:
                    i = self._record_atomic(f, i, end, ctx)
                    continue
                if text in {"sim_plain_write", "sim_plain_read"}:
                    self._record_sim_plain(f, text, call_paren, ctx, line)
                    # Scan inside the argument list (deref events, nested
                    # calls) but skip the generic call_arg handling: these
                    # are the simulator's transparent plain-access shims
                    # (src/common/catomic.hpp), not escapes.
                    i = call_paren + 1
                    continue
                if prev not in {"new", "class", "struct", "enum"}:
                    f.calls.append((text, line))
                    for arg in self._direct_args(call_paren):
                        if len(arg) == 1 and arg[0][0] == "id" and \
                                arg[0][1] in symbols:
                            f.events.append(
                                FlowEvent("call_arg", arg[0][1], text,
                                          line))
                            ctx.escaped.add(arg[0][1])
                i += 1
                continue
            i += 1
        # The function's end closes every guard still open.
        end_line = self.toks[end][2] if end < len(self.toks) else 0
        while ctx.guards:
            gen, _ = ctx.guards.pop()
            f.events.append(FlowEvent("guard_close", "", str(gen), end_line))

    def _record_sim_plain(self, f: FuncInfo, callee: str, open_idx: int,
                          ctx: _FnCtx, line: int) -> None:
        """Lowers `cats::sim_plain_write(x->field, v)` / `sim_plain_read(
        x->field)` to the events their unwrapped forms (`x->field = v`,
        `x->field`) would produce, so the dataflow rules (R5 receiver
        tracking, R6 immutability, R0 annotation consumption) see through
        the simulator's instrumentation layer."""
        args = self._direct_args(open_idx)
        if not args:
            return
        dst = args[0]
        if len(dst) != 3 or dst[0][0] != "id" or \
                dst[1][1] not in {"->", "."} or dst[2][0] != "id":
            return
        base, fld = dst[0][1], dst[2][1]
        if callee == "sim_plain_read" or base not in ctx.symbols:
            return  # deref events come from the in-args scan
        f.events.append(FlowEvent("field_write", base, fld, line))
        if len(args) >= 2:
            vid = self._arg_single_id(args[1])
            # Same private-graph exception as a lexical `lb->parent = r`:
            # storing a fresh node into another still-private node keeps
            # the object graph private; anything else escapes the value.
            if vid is not None and vid in ctx.newed and \
                    base not in ctx.newed:
                ctx.escaped.add(vid)

    def _new_or_cast_type(self, i: int, end: int) -> Optional[str]:
        if i < end and self.toks[i][1] == "new":
            j = i + 1
            last = None
            while j < end and (self.toks[j][0] == "id" or
                               self.toks[j][1] == "::"):
                if self.toks[j][0] == "id":
                    last = self.toks[j][1]
                j += 1
            return last
        if i < end and self.toks[i][1] == "static_cast":
            # take the outermost type head: last id at template depth 1
            j = i + 1
            last = None
            depth = 0
            while j < end:
                t = self.toks[j][1]
                if t == "<":
                    depth += 1
                elif t == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif t == "*":
                    break
                elif self.toks[j][0] == "id" and depth == 1 and \
                        t != "const":
                    last = t
                j += 1
            return last
        return None

    def _record_delete(self, f: FuncInfo, i: int, end: int,
                       symbols: Dict[str, str],
                       class_stack: List[str]) -> int:
        line = self.toks[i][2]
        j = i + 1
        if j < end and self.toks[j][1] == "[":
            j = self.match_forward(j, "[", "]") + 1
        target_type: Optional[str] = None
        is_this = False
        expr_parts: List[str] = []
        if j < end and self.toks[j][1] == "this":
            is_this = True
            expr_parts.append("this")
            if class_stack:
                target_type = class_stack[-1]
        else:
            t = self._new_or_cast_type(j, end)
            if t:
                target_type = t
            last_id = None
            steps = 0
            while j < end and self.toks[j][1] != ";" and steps < 48:
                if self.toks[j][0] == "id":
                    last_id = self.toks[j][1]
                expr_parts.append(self.toks[j][1])
                j += 1
                steps += 1
            if target_type is None and last_id is not None:
                target_type = symbols.get(last_id)
        self.model.delete_ops.append(DeleteOp(
            file=self.model.rel, line=line, target_type=target_type,
            target_expr=" ".join(expr_parts[:12]), is_delete_this=is_this,
            enclosing=f.name,
            enclosing_class=class_stack[-1] if class_stack else None,
            in_operator_delete=f.base_name == "operator delete"))
        return j + 1

    def _direct_args(self, open_idx: int) -> List[List[Tuple[str, str, int]]]:
        """Token runs of each top-level argument of the call at toks[open_idx]."""
        close = self.match_forward(open_idx, "(", ")")
        args: List[List[Tuple[str, str, int]]] = []
        cur: List[Tuple[str, str, int]] = []
        depth = 0
        j = open_idx
        while j <= close:
            t = self.toks[j][1]
            if t in {"(", "[", "{"}:
                depth += 1
                if depth > 1:
                    cur.append(self.toks[j])
            elif t in {")", "]", "}"}:
                depth -= 1
                if depth >= 1:
                    cur.append(self.toks[j])
            elif depth == 1 and t == ",":
                args.append(cur)
                cur = []
            else:
                cur.append(self.toks[j])
            j += 1
        if cur:
            args.append(cur)
        return args

    @staticmethod
    def _order_name(arg: List[Tuple[str, str, int]]) -> Optional[str]:
        """The memory-order name an argument denotes, or None.

        Only order tokens at the argument's own top level count — a nested
        atomic op's order (`x.store(y.load(acquire), release)`) must not
        turn the value argument into an order argument.
        """
        depth = 0
        for k, (_kind, t, _ln) in enumerate(arg):
            if t in {"(", "[", "{"}:
                depth += 1
            elif t in {")", "]", "}"}:
                depth -= 1
            elif depth == 0 and t.startswith("memory_order"):
                if t.startswith("memory_order_"):
                    return t[len("memory_order_"):]
                if t == "memory_order" and k + 2 < len(arg) and \
                        arg[k + 1][1] == "::":
                    return arg[k + 2][1]
        return None

    @staticmethod
    def _arg_single_id(arg: List[Tuple[str, str, int]]) -> Optional[str]:
        if len(arg) == 1 and arg[0][0] == "id":
            return arg[0][1]
        return None

    def _record_atomic(self, f: FuncInfo, i: int, end: int,
                       ctx: _FnCtx) -> int:
        op = self.toks[i][1]
        line = self.toks[i][2]
        rstart, receiver = self._receiver_span(i - 2)
        args = self._direct_args(i + 1)
        orders: List[str] = []
        value_args: List[List[Tuple[str, str, int]]] = []
        for arg in args:
            name = self._order_name(arg)
            if name is None:
                vid = self._arg_single_id(arg)
                if vid is not None and vid in ctx.order_params:
                    name = "forwarded"
            if name is not None:
                orders.append(name)
            else:
                value_args.append(arg)
        has_order = bool(orders)
        seq_cst = "seq_cst" in orders

        recv_ids = [p for p in receiver.split() if _ID_RE.fullmatch(p)]
        field = recv_ids[-1] if recv_ids else ""
        base = recv_ids[0] if recv_ids else ""

        # The value whose address this op makes reachable (if any).
        val: Optional[List[Tuple[str, str, int]]] = None
        is_cas = op.startswith("compare_exchange")
        if op in {"store", "exchange"} and value_args:
            val = value_args[0]
        elif is_cas and len(value_args) >= 2:
            val = value_args[1]
        stores_ptr = False
        if val:
            vid = self._arg_single_id(val)
            if val[0][1] == "new":
                stores_ptr = True
            elif vid is not None and vid in ctx.symbols:
                stores_ptr = True

        recv_unpub = base in ctx.newed and base not in ctx.escaped and \
            base not in ctx.published
        # A bare-member (or this->member) op inside a constructor initializes
        # an object that cannot be reachable yet.
        if not recv_unpub and (len(recv_ids) == 1 or base == "this"):
            parts = f.name.split("::")
            if len(parts) >= 2 and parts[-1] == parts[-2]:
                recv_unpub = True

        self.model.atomic_ops.append(AtomicOp(
            file=self.model.rel, line=line, op=op, receiver=receiver,
            has_explicit_order=has_order, explicit_seq_cst=seq_cst,
            enclosing=f.name, field=field, orders=tuple(orders),
            stores_pointer=stores_ptr, receiver_unpublished=recv_unpub))

        # Flow events ----------------------------------------------------
        if val:
            vid = self._arg_single_id(val)
            if vid is not None and vid in ctx.symbols:
                f.events.append(FlowEvent("publish", vid, field, line))
                ctx.published.add(vid)
        if is_cas and value_args:
            eid = self._arg_single_id(value_args[0])
            if eid is not None:
                f.events.append(
                    FlowEvent("cas_expected", eid, str(ctx.cur_gen()),
                              line))

        if op == "load" and any(fld in receiver.split()
                                for fld in self.shared_fields):
            f.shared_load_lines.append(line)
            # `var = <recv>.load(...)` binds the loaded pointer to var
            # under the innermost open guard generation (R7).
            if rstart - 2 >= 0 and self.toks[rstart - 1][1] == "=" and \
                    self.toks[rstart - 2][0] == "id":
                var = self.toks[rstart - 2][1]
                f.events.append(
                    FlowEvent("shared_load", var, str(ctx.cur_gen()),
                              line))
                ctx.loaded.add(var)
                ctx.symbols.setdefault(var, "")
        # Do not swallow the argument list: nested atomic ops, calls and
        # deletes inside it must still be scanned.
        return i + 2

    def _receiver_span(self, i: int) -> Tuple[int, str]:
        """(start token index, source-ish text) of the postfix expression
        ending at toks[i]."""
        parts: List[str] = []
        steps = 0
        while i >= 0 and steps < 40:
            t = self.toks[i][1]
            if t == "]":
                open_idx = self.match_back(i, "]", "[")
                parts.insert(0, "[]")
                i = open_idx - 1
                steps += 1
                continue
            if t == ")":
                open_idx = self.match_back(i, ")", "(")
                for k in range(i, open_idx - 1, -1):
                    parts.insert(0, self.toks[k][1])
                i = open_idx - 1
                steps += 1
                continue
            if t == ">":
                j = self._skip_template_back(i)
                parts.insert(0, "<>")
                i = j
                steps += 1
                continue
            if self.toks[i][0] == "id" or t in {"::", ".", "->", "*"}:
                parts.insert(0, t)
                i -= 1
                steps += 1
                continue
            break
        return i + 1, " ".join(parts)

    def _receiver_text(self, i: int) -> str:
        return self._receiver_span(i)[1]


def analyze_file(path: str, rel: str, cfg: dict) -> FileModel:
    defines = {k: int(v) for k, v in cfg.get("defines", {}).items()}
    raw, annotations, toks = cpptok.lex_file(path, defines)
    model = FileModel(path=path, rel=rel)
    model.annotations = annotations
    model.lines = {i + 1: raw[i] for i in range(len(raw))}
    _Scanner(toks, model, cfg).run()
    return model
