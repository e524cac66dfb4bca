#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py: direction inference, the alloc_
zero-tolerance class, and per-metric --override globs.

Runs the ratchet as a subprocess against temp JSON fixtures — the same
way CI invokes it — so argument parsing and exit codes are covered too.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SCRIPT = os.path.join(REPO, "tools", "bench_diff.py")

sys.path.insert(0, os.path.join(REPO, "tools"))
bench_diff = __import__("bench_diff")


def run_diff(baseline, fresh, *extra):
    with tempfile.TemporaryDirectory() as d:
        base_path = os.path.join(d, "base.json")
        fresh_path = os.path.join(d, "fresh.json")
        with open(base_path, "w") as f:
            json.dump(baseline, f)
        with open(fresh_path, "w") as f:
            json.dump(fresh, f)
        proc = subprocess.run(
            [sys.executable, SCRIPT, base_path, fresh_path, *extra],
            capture_output=True, text=True)
    return proc


class DirectionTest(unittest.TestCase):
    def test_basic_classes(self):
        self.assertEqual(bench_diff.direction("run.speedup_x"), "higher")
        self.assertEqual(bench_diff.direction("run.entries_touched"), "lower")
        self.assertEqual(bench_diff.direction("run.wall_ms"), "ignored")
        self.assertEqual(bench_diff.direction("run.decisions"), "pinned")

    def test_alloc_prefix_is_lower_is_better(self):
        self.assertEqual(bench_diff.direction("flow.alloc_per_op"), "lower")
        self.assertEqual(bench_diff.direction("alloc_trace_bytes"), "lower")
        # Prefix means prefix: E21's plain "allocations" key keeps its
        # pinned class and default tolerance.
        self.assertEqual(bench_diff.direction("audit.allocations"), "pinned")
        self.assertEqual(
            bench_diff.tolerance_for("audit.allocations", 0.10, []), 0.10)

    def test_list_rows_are_keyed_by_label(self):
        # E26's trace_paths rows carry "path", E21's audit_census rows
        # carry "point": either names the row, so retiring one row leaves
        # the others keyed as before.
        out = {}
        bench_diff.flatten({"trace_paths": [
            {"path": "disabled", "bytes": 0},
            {"path": "append-form", "bytes": 0}]}, "", out)
        bench_diff.flatten({"audit_census": [
            {"point": "pam-ssh", "denied": 1}]}, "", out)
        self.assertEqual(set(out), {"trace_paths[disabled].bytes",
                                    "trace_paths[append-form].bytes",
                                    "audit_census[pam-ssh].denied"})

    def test_leaf_of_list_entries(self):
        self.assertEqual(bench_diff.leaf_of("runs[warm].alloc_per_op"),
                         "alloc_per_op")


class ToleranceTest(unittest.TestCase):
    def test_alloc_class_is_zero_tolerance(self):
        self.assertEqual(bench_diff.tolerance_for("x.alloc_per_op", 0.10, []),
                         0.0)

    def test_override_beats_alloc_class_and_default(self):
        ov = bench_diff.parse_overrides(["alloc_*=0.05", "*.decisions=0.5"])
        self.assertEqual(bench_diff.tolerance_for("x.alloc_per_op", 0.10, ov),
                         0.05)
        self.assertEqual(bench_diff.tolerance_for("run.decisions", 0.10, ov),
                         0.5)
        self.assertEqual(bench_diff.tolerance_for("run.other", 0.10, ov),
                         0.10)

    def test_last_matching_override_wins(self):
        ov = bench_diff.parse_overrides(["alloc_*=0.5", "alloc_per_op=0.0"])
        self.assertEqual(bench_diff.tolerance_for("x.alloc_per_op", 0.10, ov),
                         0.0)

    def test_bad_override_rejected(self):
        with self.assertRaises(SystemExit):
            bench_diff.parse_overrides(["no-equals-sign"])
        with self.assertRaises(SystemExit):
            bench_diff.parse_overrides(["glob=notanumber"])
        with self.assertRaises(SystemExit):
            bench_diff.parse_overrides(["glob=-0.1"])


class EndToEndTest(unittest.TestCase):
    def test_within_threshold_passes(self):
        p = run_diff({"touched": 100}, {"touched": 105})
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_alloc_metric_fails_on_any_regression(self):
        p = run_diff({"alloc_per_op": 100}, {"alloc_per_op": 101})
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("alloc_per_op", p.stdout)
        self.assertIn("tol 0%", p.stdout)

    def test_alloc_metric_improvement_passes(self):
        p = run_diff({"alloc_per_op": 100}, {"alloc_per_op": 90})
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_override_loosens_a_metric(self):
        base, fresh = {"alloc_per_op": 100}, {"alloc_per_op": 104}
        self.assertEqual(run_diff(base, fresh).returncode, 1)
        p = run_diff(base, fresh, "--override", "alloc_per_op=0.05")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_override_tightens_a_metric(self):
        base, fresh = {"touched": 100}, {"touched": 105}
        self.assertEqual(run_diff(base, fresh).returncode, 0)
        p = run_diff(base, fresh, "--override", "touched=0.01")
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)

    def test_dropped_row_does_not_shift_the_rest(self):
        base = {"rows": [{"path": "a", "allocs": 5},
                         {"path": "b", "allocs": 0}]}
        fresh = {"rows": [{"path": "b", "allocs": 0}]}
        p = run_diff(base, fresh)
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("rows[a].allocs: missing from fresh", p.stdout)
        self.assertNotIn("rows[b]", p.stdout)

    def test_ok_line_names_the_applied_tolerance(self):
        p = run_diff({"touched": 100}, {"touched": 100},
                     "--override", "*=0")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("1 metrics within 0%", p.stdout)
        self.assertNotIn("10%", p.stdout)

    def test_ok_line_counts_each_tolerance(self):
        p = run_diff({"touched": 100, "alloc_per_op": 3},
                     {"touched": 100, "alloc_per_op": 3})
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("1 metrics within 10%, 1 within 0%", p.stdout)

    def test_missing_metric_still_fails(self):
        p = run_diff({"alloc_per_op": 1, "touched": 2}, {"touched": 2})
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("missing from fresh", p.stdout)


if __name__ == "__main__":
    unittest.main()
