#!/usr/bin/env python3
"""Unit tests for tools/check_bench.py (run by ctest as check_bench_unit).

Exercises the checker's contract through the --current path, on temp copies
of a small synthesized baseline — no bench binary involved:

  0 = within tolerance and exact (new keys are reported, not errors),
  1 = a banded value diverges, an exact value differs, or a key is missing.

A plain check must never write the baseline; only --update does here.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "tools", "check_bench.py")

BASELINE = {
    "demo": {
        "tolerance": 0.10,
        "values": {"rate": 100.0},
        "exact": {"frames": 42.0},
    },
    "other": {"tolerance": 0.50, "values": {"x": 1.0}},
}


def run_tool(*argv):
    proc = subprocess.run([sys.executable, TOOL, *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(self.dir.name, "BENCH_BASELINE.json")
        self.current = os.path.join(self.dir.name, "current.json")
        with open(self.baseline, "w") as f:
            json.dump(BASELINE, f, indent=2, sort_keys=True)
            f.write("\n")

    def tearDown(self):
        self.dir.cleanup()

    def baseline_bytes(self):
        with open(self.baseline, "rb") as f:
            return f.read()

    def check(self, metrics, *extra):
        with open(self.current, "w") as f:
            json.dump({"metrics": metrics}, f)
        return run_tool("--current", self.current, "--baseline", self.baseline,
                        "--name", "demo", *extra)

    def test_match_exits_zero(self):
        rc, out = self.check({"rate": 104.0, "frames": 42.0})
        self.assertEqual(rc, 0, out)

    def test_new_key_is_reported_and_baseline_left_untouched(self):
        before = self.baseline_bytes()
        rc, out = self.check({"rate": 100.0, "frames": 42.0, "threads": 4.0})
        self.assertEqual(rc, 0, out)
        self.assertEqual(self.baseline_bytes(), before)
        self.assertIn("NEW", out)
        self.assertIn("threads", out)
        self.assertIn("--update", out)

    def test_value_outside_tolerance_diverges(self):
        before = self.baseline_bytes()
        rc, out = self.check({"rate": 120.0, "frames": 42.0})
        self.assertEqual(rc, 1, out)
        self.assertIn("DIVERGES", out)
        self.assertEqual(self.baseline_bytes(), before)

    def test_changed_exact_value_differs(self):
        rc, out = self.check({"rate": 100.0, "frames": 43.0})
        self.assertEqual(rc, 1, out)
        self.assertIn("DIFFERS", out)

    def test_missing_key_fails(self):
        rc, out = self.check({"frames": 42.0})
        self.assertEqual(rc, 1, out)
        self.assertIn("MISSING", out)
        self.assertIn("rate", out)

    def test_update_rewrites_the_entry(self):
        rc, out = self.check({"rate": 250.0, "frames": 43.0, "threads": 4.0},
                             "--update")
        self.assertEqual(rc, 0, out)
        with open(self.baseline) as f:
            doc = json.load(f)
        self.assertEqual(doc["demo"]["values"], {"rate": 250.0, "threads": 4.0})
        self.assertEqual(doc["demo"]["exact"], {"frames": 43.0})
        self.assertEqual(doc["other"], BASELINE["other"])
        # The rewritten entry now checks clean.
        rc, out = self.check({"rate": 250.0, "frames": 43.0, "threads": 4.0})
        self.assertEqual(rc, 0, out)
        self.assertNotIn("NEW", out)


if __name__ == "__main__":
    unittest.main()
