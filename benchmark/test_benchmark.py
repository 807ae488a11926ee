#!/usr/bin/env python3
"""Tests of the benchmark itself: argument checks and failure accounting.

Run from the root of a checkout:

    python3 benchmark/test_benchmark.py

Builds the driver through run.py, then runs it directly.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def drive(*args):
    """Runs the driver; returns (exit code, stdout lines, stderr)."""
    proc = subprocess.run([run.BINARY, *args], capture_output=True,
                          text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("the driver does not build here")

    def test_rejects_bad_arguments(self):
        for args in (["--workload", "nope"],
                     ["--workload", "paper", "--scale", "garbage"],
                     ["--workload", "paper", "--scale", "0"],
                     ["--workload", "paper", "--scale=-1"],
                     ["--workload", "paper", "--seconds", "x"],
                     ["--workload", "paper", "--trace", "2"],
                     ["--smoke", "--wrong-reference", "nope"]):
            code, out, _ = drive(*args)
            self.assertEqual(code, 2, args)
            self.assertEqual(out, [], args)

    def test_wrong_reference_is_a_failed_operation(self):
        code, out, err = drive("--smoke", "--wrong-reference", "FFT")
        self.assertNotEqual(code, 0)
        result = json.loads(out[-1])
        self.assertFalse(result["correct"])
        # FFT runs three times per workload (profiling, untraced and traced
        # pass); profiling uses one mutator, group's passes use two.
        self.assertGreaterEqual(result["failed"], 3 + 3 + (1 + 2 * 2))
        fft = [l for l in err.splitlines() if l.startswith("FAILED FFT:")]
        self.assertEqual(len(fft), 9, err)
        self.assertTrue(all("checksum" in l for l in fft), fft)

    def test_smoke_fails_only_known_pause_misses(self):
        code, out, err = drive("--smoke")
        result = json.loads(out[-1])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["correct"], result["failed"] == 0)
        self.assertEqual(code != 0, result["failed"] > 0)
        # The one failure known at the smoke's small scale: a single-mutator
        # program's major-track pause p99 over the pause-slo budget (see
        # CHANGES.md). Each such failure is one operation and one line; any
        # other failed check, or more failures than lines, fails the test.
        failed = [l for l in err.splitlines() if l.startswith("FAILED ")]
        self.assertEqual(len(failed), result["failed"], err)
        for line in failed:
            self.assertIn("major pause p99", line)


if __name__ == "__main__":
    unittest.main()
