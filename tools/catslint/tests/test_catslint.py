#!/usr/bin/env python3
"""Fixture tests for cats-lint.

Every rule R0-R7 is proven LIVE: its firing fixture must yield findings,
and the same run with the rule disabled must yield none (so a silently
broken or skipped check fails this suite, not just the fixture).  The
corrected twin of each fixture must pass clean.

Runs under pytest or plain `python3 test_catslint.py` (unittest).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(HERE, os.pardir, "catslint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(*args):
    cmd = [sys.executable, TOOL, "--no-baseline", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    return proc


def lint_fixture(name, extra=()):
    return run_lint("--src", os.path.join(FIXTURES, name), *extra)


class RuleLiveness(unittest.TestCase):
    """fire fixture finds; --disable silences; pass fixture is clean."""

    def assert_fires(self, fixture, rule, min_count=1, must_mention=()):
        proc = lint_fixture(fixture)
        lines = [ln for ln in proc.stdout.splitlines()
                 if f" {rule}: " in ln]
        self.assertEqual(proc.returncode, 1,
                         f"{fixture} should fail the lint gate:\n"
                         f"{proc.stdout}\n{proc.stderr}")
        self.assertGreaterEqual(
            len(lines), min_count,
            f"{fixture} expected >= {min_count} {rule} finding(s):\n"
            f"{proc.stdout}")
        for needle in must_mention:
            self.assertTrue(any(needle in ln for ln in lines),
                            f"expected a {rule} finding mentioning "
                            f"{needle!r}:\n{proc.stdout}")
        # Liveness: disabling the rule must silence it — this is what
        # catches a check that was accidentally turned off.
        off = lint_fixture(fixture, ("--disable", rule))
        self.assertEqual(off.returncode, 0,
                         f"{fixture} with --disable {rule} should pass:\n"
                         f"{off.stdout}\n{off.stderr}")
        self.assertNotIn(f" {rule}: ", off.stdout)

    def assert_clean(self, fixture):
        proc = lint_fixture(fixture)
        self.assertEqual(proc.returncode, 0,
                         f"{fixture} should be clean:\n{proc.stdout}\n"
                         f"{proc.stderr}")
        self.assertEqual(proc.stdout.strip(), "")

    def test_r1_fires_on_defaulted_and_unexplained_seq_cst(self):
        self.assert_fires("r1_fire.cpp", "R1", min_count=2,
                          must_mention=("defaulted", "seq_cst"))

    def test_r1_passes_explicit_and_justified(self):
        self.assert_clean("r1_pass.cpp")

    def test_r1_passes_forwarded_order_params(self):
        """cats::atomic-style wrappers forward their caller's order
        through a std::memory_order parameter; that is explicit."""
        self.assert_clean("r1_forward_pass.cpp")

    def test_r2_fires_on_unguarded_shared_load(self):
        self.assert_fires("r2_fire.cpp", "R2",
                          must_mention=("unguarded_read",))

    def test_r2_passes_guard_and_annotations(self):
        self.assert_clean("r2_pass.cpp")

    def test_r2_callgraph_rejects_partially_guarded_callers(self):
        self.assert_fires("r2_callgraph_fire.cpp", "R2",
                          must_mention=("helper",))

    def test_r2_callgraph_accepts_fully_guarded_chains(self):
        self.assert_clean("r2_callgraph_pass.cpp")

    def test_r3_fires_on_direct_node_delete(self):
        self.assert_fires("r3_fire.cpp", "R3", min_count=2,
                          must_mention=("Node",))

    def test_r3_passes_retire_annotation_and_poisoning_deleter(self):
        self.assert_clean("r3_pass.cpp")

    def test_r4_fires_on_blocking_in_lockfree_closure(self):
        self.assert_fires("r4_fire.cpp", "R4", min_count=2,
                          must_mention=("sleep_for",))

    def test_r4_passes_nonblocking_closure(self):
        self.assert_clean("r4_pass.cpp")

    def test_r5_fires_on_broken_order_matrix(self):
        self.assert_fires("r5_fire.cpp", "R5", min_count=4,
                          must_mention=("release-side", "relaxed",
                                        "pairs with"))

    def test_r5_passes_paired_matrix(self):
        self.assert_clean("r5_pass.cpp")

    def test_r6_fires_on_write_after_publish(self):
        self.assert_fires("r6_fire.cpp", "R6", min_count=2,
                          must_mention=("published", "immutable"))

    def test_r6_passes_prepublish_builders(self):
        self.assert_clean("r6_pass.cpp")

    def test_r6_fires_through_sim_plain_write(self):
        """The simulator's plain-access shim must not launder a
        post-publication mutation."""
        self.assert_fires("r6_sim_fire.cpp", "R6",
                          must_mention=("published",))

    def test_r6_passes_sim_instrumented_builders(self):
        """sim_plain_write/read are transparent: private-graph escapes,
        R5 receiver tracking and annotation consumption all see through
        them (the instrumented lfca tree relies on this)."""
        self.assert_clean("r6_sim_pass.cpp")

    def test_r7_fires_on_guard_escape_and_cross_generation_cas(self):
        self.assert_fires("r7_fire.cpp", "R7", min_count=2,
                          must_mention=("guard", "ABA"))

    def test_r7_passes_in_scope_uses(self):
        self.assert_clean("r7_pass.cpp")

    def test_r0_fires_on_dangling_annotations(self):
        self.assert_fires("r0_fire.cpp", "R0", min_count=2,
                          must_mention=("dangling",))

    def test_r0_passes_live_annotations(self):
        self.assert_clean("r0_pass.cpp")


class Baseline(unittest.TestCase):
    def test_update_baseline_then_gate_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "baseline.json")
            fix = os.path.join(FIXTURES, "r1_fire.cpp")
            up = subprocess.run(
                [sys.executable, TOOL, "--src", fix,
                 "--baseline", base, "--update-baseline"],
                capture_output=True, text=True, timeout=300)
            self.assertEqual(up.returncode, 0, up.stderr)
            with open(base, encoding="utf-8") as f:
                data = json.load(f)
            self.assertGreaterEqual(len(data["findings"]), 2)
            gated = subprocess.run(
                [sys.executable, TOOL, "--src", fix, "--baseline", base],
                capture_output=True, text=True, timeout=300)
            self.assertEqual(gated.returncode, 0,
                             f"baselined findings must not fail the "
                             f"gate:\n{gated.stdout}\n{gated.stderr}")


class RepoGate(unittest.TestCase):
    def test_src_tree_is_clean_under_all_rules(self):
        """The acceptance gate: src/ has zero unbaselined findings."""
        proc = run_lint()
        self.assertEqual(proc.returncode, 0,
                         f"src/ must lint clean:\n{proc.stdout}\n"
                         f"{proc.stderr}")


class ParallelDeterminism(unittest.TestCase):
    def test_jobs_output_matches_serial(self):
        """--jobs must not change findings, their order, or the verdict.

        The whole fixture corpus is linted at once (dozens of findings
        across many files) serially and with a worker pool; byte-identical
        stdout proves the pool preserves file order and the global rules
        see the same model sequence.
        """
        serial = run_lint("--src", FIXTURES, "--jobs", "1")
        pooled = run_lint("--src", FIXTURES, "--jobs", "4")
        self.assertEqual(serial.returncode, pooled.returncode)
        self.assertNotEqual(serial.stdout.strip(), "",
                            "fixture corpus should produce findings")
        self.assertEqual(serial.stdout, pooled.stdout)


if __name__ == "__main__":
    unittest.main()
