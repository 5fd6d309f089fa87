#!/usr/bin/env python3
"""Annotation-grammar edge cases for cats-lint.

Locks in the parsing and scoping semantics the rules rely on:
  - payload parsing (nested parentheses, hyphenated directive names,
    several directives on one line, unknown directives ignored),
  - effective-line resolution (same-line vs line-above, blank-line
    skipping, block-comment continuation lines),
  - function-scope suppression (an off(...) inside a function covers
    findings in nested lambdas, which the engine attributes to the
    enclosing function),
  - the R0 interaction (a redundant annotation on an already-suppressed
    line is itself reported as dangling).

The tests build FileModels directly through the token engine.
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir))

import cpptok  # noqa: E402
import rules  # noqa: E402
import token_engine  # noqa: E402

with open(os.path.join(HERE, os.pardir, "config.json"),
          encoding="utf-8") as _f:
    CFG = json.load(_f)

# The rel path decides which path-scoped rules apply; impersonate a
# fixture so R2/R4 treat the virtual file like the real corpus.
REL = "tools/catslint/tests/fixtures/virtual_annotations.cpp"


def analyze(source):
    with tempfile.NamedTemporaryFile("w", suffix=".cpp",
                                     delete=False) as tf:
        tf.write(source)
        path = tf.name
    try:
        return token_engine.analyze_file(path, REL, CFG)
    finally:
        os.unlink(path)


def lint(source, enabled=None):
    model = analyze(source)
    found = rules.run_all([model], CFG,
                          set(rules.ALL_RULES) if enabled is None
                          else enabled)
    return model, found


class SplitDirectives(unittest.TestCase):
    def test_nested_parentheses_stay_in_the_payload(self):
        parsed = cpptok._split_directives(
            "pairing(pairs with scan (via the range-for alias))")
        self.assertEqual(parsed, [
            ("pairing", "pairs with scan (via the range-for alias)")])

    def test_hyphenated_directive_names(self):
        parsed = cpptok._split_directives(
            "pre-publish(builder), direct-delete(teardown), under-guard")
        self.assertEqual([name for name, _ in parsed],
                         ["pre-publish", "direct-delete", "under-guard"])

    def test_several_directives_on_one_line(self):
        parsed = cpptok._split_directives("seq_cst(fence pair), off(R1,R3)")
        self.assertEqual(parsed,
                         [("seq_cst", "fence pair"), ("off", "R1,R3")])

    def test_unknown_directives_are_dropped_by_extraction(self):
        anns = cpptok.extract_annotations(
            ["int x;  // catslint: not_a_directive(whatever), seq_cst(ok)"])
        self.assertEqual(len(anns[1]), 1)
        self.assertEqual(anns[1][0].directive, "seq_cst")


class EffectiveLine(unittest.TestCase):
    def test_same_line_annotation_applies_to_its_own_line(self):
        anns = cpptok.extract_annotations(
            ["x.store(0);  // catslint: seq_cst(why)"])
        self.assertEqual(list(anns), [1])
        self.assertEqual(anns[1][0].raw_line, 1)

    def test_line_above_applies_to_next_code_line_skipping_blanks(self):
        anns = cpptok.extract_annotations([
            "// catslint: seq_cst(why)",
            "",
            "",
            "x.store(0);",
        ])
        self.assertEqual(list(anns), [4])
        self.assertEqual(anns[4][0].raw_line, 1)

    def test_block_comment_continuation_counts_as_line_above(self):
        """A `// catslint:` on a block-comment continuation line (leading
        `*`) is comment-only and falls through to the next code line."""
        anns = cpptok.extract_annotations([
            " * // catslint: seq_cst(why)",
            "x.store(0);",
        ])
        self.assertEqual(list(anns), [2])
        self.assertEqual(anns[2][0].directive, "seq_cst")

    def test_same_line_and_line_above_both_attach_in_source_order(self):
        anns = cpptok.extract_annotations([
            "// catslint: seq_cst(above)",
            "x.store(0);  // catslint: off(R1)",
        ])
        self.assertEqual([a.directive for a in anns[2]],
                         ["seq_cst", "off"])


class FunctionScope(unittest.TestCase):
    LAMBDA_SRC = """\
#include <atomic>
#include <chrono>
#include <thread>

int lf_entry(int x) {
  // catslint: off(R4)
  auto outer = [&] {
    auto inner = [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return 1;
    };
    return inner();
  };
  return outer() + x;
}
"""

    def test_off_covers_findings_inside_nested_lambdas(self):
        """The blocking call sits two lambdas deep; the engine attributes
        it to lf_entry, so the function-scope off(R4) suppresses it and
        is therefore live (no R0)."""
        model, found = lint(self.LAMBDA_SRC)
        self.assertEqual(found, [], [f.render() for f in found])
        ann = model.annotations_for_func(model.funcs[0])
        self.assertTrue(any(a.directive == "off" and a.used for a in ann))

    def test_without_the_annotation_the_lambda_finding_fires(self):
        src = self.LAMBDA_SRC.replace("  // catslint: off(R4)\n", "")
        _, found = lint(src)
        self.assertEqual([f.rule for f in found], ["R4"])
        self.assertIn("sleep_for", found[0].message)

    def test_redundant_second_annotation_is_reported_dangling(self):
        """Line-above wins the suppression race; the same-line off(R1)
        then suppresses nothing and R0 calls it out."""
        src = """\
#include <atomic>
std::atomic<int> c{0};
int bump() {
  // catslint: seq_cst(the winning justification)
  return c.fetch_add(1);  // catslint: off(R1)
}
"""
        _, found = lint(src)
        self.assertEqual([f.rule for f in found], ["R0"])
        self.assertIn("off(R1)", found[0].message)

    def test_disabling_a_rule_does_not_fabricate_danglers(self):
        """--disable only filters emission: the rules still run and mark
        their annotations used, so a justified site stays R0-clean even
        when its rule's findings are not emitted."""
        src = """\
#include <atomic>
std::atomic<int> c{0};
int bump() {
  // catslint: seq_cst(still evaluated even when R1 is disabled)
  return c.fetch_add(1);
}
"""
        _, found = lint(src, enabled=set(rules.ALL_RULES) - {"R1"})
        self.assertEqual(found, [], [f.render() for f in found])


if __name__ == "__main__":
    unittest.main()
