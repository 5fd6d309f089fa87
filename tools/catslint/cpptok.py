"""Lexical front half of the token engine.

Turns a C++ source file into an annotation map plus a token stream with
line numbers, after (a) extracting `// catslint:` annotations, (b) dropping
preprocessor-inactive regions for a configured macro environment, and
(c) stripping comments, string and character literals.

This is deliberately not a real preprocessor: it evaluates only the simple
conditional shapes this repo uses (`#if MACRO`, `#if defined(MACRO)`,
`#ifdef` / `#ifndef`, negations, `#else`, `#elif` of the same shapes).
Unknown conditions keep the #if branch active and drop the #else branch,
which matches how the default build configuration compiles this tree.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from model import Annotation, DIRECTIVES

Token = Tuple[str, str, int]  # (kind, text, line) kind: id | num | punct

_ANNOT_RE = re.compile(r"//\s*catslint:\s*(.+?)\s*(?:\*/)?\s*$")
_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"""[A-Za-z_][A-Za-z0-9_]*          # identifier / keyword
      | 0[xX][0-9a-fA-F']+[uUlL]*       # hex literal
      | \d[\d'.eEpPxX+\-uUlLfF]*        # numeric literal (loose)
      | ::|->\*?|\+\+|--|<<=|>>=|<=>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=
      | %=|&=|\|=|\^=|<<|>>|\.\.\.|.
    """, re.VERBOSE)


def _split_directives(text: str) -> List[Tuple[str, str]]:
    """Splits 'seq_cst(reason, more), off(R1)' into (name, payload) pairs."""
    out: List[Tuple[str, str]] = []
    i = 0
    n = len(text)
    while i < n:
        m = _ID_RE.match(text.replace("-", "_"), i)
        if not m:
            i += 1
            continue
        name = text[m.start():m.end()]
        i = m.end()
        payload = ""
        if i < n and text[i] == "(":
            depth = 0
            j = i
            while j < n:
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            payload = text[i + 1:j]
            i = j + 1
        out.append((name, payload.strip()))
        while i < n and text[i] in ", \t":
            i += 1
    return out


def extract_annotations(lines: List[str]) -> Dict[int, List[Annotation]]:
    """Maps effective code line -> annotations.

    An annotation applies to the code on its own line; when the line holds
    nothing but the comment, it applies to the next non-blank line.
    """
    out: Dict[int, List[Annotation]] = {}
    for idx, line in enumerate(lines, start=1):
        m = _ANNOT_RE.search(line)
        if not m:
            continue
        before = line[:m.start()].strip()
        effective = idx
        if not before or before in {"/*", "*"}:
            nxt = idx + 1
            while nxt <= len(lines) and not lines[nxt - 1].strip():
                nxt += 1
            effective = nxt
        for name, payload in _split_directives(m.group(1)):
            if name not in DIRECTIVES:
                continue
            rules: Tuple[str, ...] = ()
            reason = payload
            if name == "off":
                rules = tuple(r.strip().upper()
                              for r in payload.split(",") if r.strip())
                reason = ""
            out.setdefault(effective, []).append(
                Annotation(directive=name, reason=reason, rules=rules,
                           line=effective, raw_line=idx))
    return out


def _eval_condition(cond: str, defines: Dict[str, int]) -> Optional[bool]:
    """Evaluates the simple conditional shapes used in this repo.

    Returns None when the condition is outside the supported subset.
    """
    cond = cond.strip()
    neg = False
    while cond.startswith("!"):
        neg = not neg
        cond = cond[1:].strip()
    m = re.fullmatch(r"defined\s*\(\s*(\w+)\s*\)|defined\s+(\w+)", cond)
    if m:
        name = m.group(1) or m.group(2)
        val = name in defines
    elif re.fullmatch(r"\w+", cond):
        if cond.isdigit():
            val = int(cond) != 0
        elif cond in defines:
            val = defines[cond] != 0
        else:
            # Undefined identifier in #if evaluates to 0.  Unknown macros we
            # have no opinion about are treated as "keep the branch".
            return None if not neg else None
    else:
        return None
    return (not val) if neg else val


def strip_inactive(lines: List[str], defines: Dict[str, int]) -> List[str]:
    """Blanks out lines in preprocessor-inactive regions."""
    out: List[str] = []
    # Stack of (parent_active, this_branch_active, any_branch_taken).
    stack: List[List[bool]] = []

    def active() -> bool:
        return all(fr[1] for fr in stack)

    # Pre-pass: blank backslash-continuation lines of multi-line
    # directives so macro bodies never leak into the token stream.
    lines = list(lines)
    idx = 0
    total = len(lines)
    while idx < total:
        if lines[idx].lstrip().startswith("#"):
            while lines[idx].rstrip().endswith("\\") and idx + 1 < total:
                idx += 1
                lines[idx] = ""
        idx += 1

    for line in lines:
        stripped = line.lstrip()
        if stripped.startswith("#"):
            directive = stripped[1:].lstrip()
            parent = active()
            if directive.startswith(("ifdef", "ifndef", "if")):
                if directive.startswith("ifdef"):
                    name = directive[5:].strip().split()[0] if \
                        directive[5:].strip() else ""
                    cond = name in defines
                elif directive.startswith("ifndef"):
                    name = directive[6:].strip().split()[0] if \
                        directive[6:].strip() else ""
                    cond = name not in defines
                else:
                    res = _eval_condition(directive[2:], defines)
                    cond = True if res is None else res
                stack.append([parent, bool(cond), bool(cond)])
                out.append("")
                continue
            if directive.startswith("elif"):
                if stack:
                    fr = stack[-1]
                    if fr[2]:
                        fr[1] = False
                    else:
                        res = _eval_condition(directive[4:], defines)
                        fr[1] = True if res is None else res
                        fr[2] = fr[2] or fr[1]
                out.append("")
                continue
            if directive.startswith("else"):
                if stack:
                    fr = stack[-1]
                    fr[1] = not fr[2]
                    fr[2] = True
                out.append("")
                continue
            if directive.startswith("endif"):
                if stack:
                    stack.pop()
                out.append("")
                continue
            # Other directives (#include, #define, #pragma): keep the line
            # out of the token stream either way.
            out.append("")
            continue
        out.append(line if active() else "")
    return out


def strip_comments_and_strings(lines: List[str]) -> List[str]:
    """Removes comments and string/char literal contents, keeping lines."""
    out: List[str] = []
    in_block = False
    for line in lines:
        res: List[str] = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                j = line.find("*/", i)
                if j < 0:
                    i = n
                else:
                    in_block = False
                    i = j + 2
                continue
            c = line[i]
            two = line[i:i + 2]
            if two == "//":
                break
            if two == "/*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                res.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        break
                    i += 1
                res.append(quote)
                i += 1
                continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return out


def tokenize(lines: List[str]) -> List[Token]:
    toks: List[Token] = []
    for idx, line in enumerate(lines, start=1):
        for m in _TOKEN_RE.finditer(line):
            text = m.group(0)
            if text.isspace():
                continue
            if text[0].isalpha() or text[0] == "_":
                kind = "id"
            elif text[0].isdigit():
                kind = "num"
            else:
                kind = "punct"
            toks.append((kind, text, idx))
    return toks


def lex_file(path: str, defines: Dict[str, int]):
    """Returns (raw_lines, annotations, tokens)."""
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read().splitlines()
    annotations = extract_annotations(raw)
    active = strip_inactive(raw, defines)
    clean = strip_comments_and_strings(active)
    return raw, annotations, tokenize(clean)
