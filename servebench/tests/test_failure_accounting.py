#!/usr/bin/env python3
"""Self-test of servebench's failure accounting and correctness gate.

Runs short benchmark passes with deliberate faults and checks that each one
is counted where it belongs:

  malformed  one well-framed request with an unknown verb: the server
             rejects it, so `failed` > 0 while the answer stays correct;
  drop       one session start is never sent: the server drops its end as
             unknown, so `failed` > 0 while the answer stays correct;
  perturb    the served bill is nudged by one ulp before the gate: the run
             must report correct=false and exit nonzero.

Run from the repository root:  python3 servebench/tests/test_failure_accounting.py
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_bench(inject, workload="tiers_bulk_binary"):
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", "--inject", inject],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


class FailureAccountingTest(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        code, result, log = run_bench("none")
        self.assertEqual(code, 0, log)
        self.assertTrue(result["correct"], log)
        self.assertEqual(result["failed"], 0, log)

    def test_malformed_frame_raises_failed_share(self):
        for workload in ("tiers_bulk_binary", "mixed_json_openloop"):
            code, result, log = run_bench("malformed", workload)
            self.assertEqual(code, 0, log)
            self.assertTrue(result["correct"], log)
            self.assertGreater(result["failed"] / result["attempted"], 0, log)

    def test_dropped_event_raises_failed_share(self):
        code, result, log = run_bench("drop")
        self.assertEqual(code, 0, log)
        self.assertTrue(result["correct"], log)
        self.assertGreater(result["failed"] / result["attempted"], 0, log)

    def test_perturbed_answer_trips_the_gate(self):
        code, result, log = run_bench("perturb")
        self.assertNotEqual(code, 0, log)
        self.assertIsNotNone(result, log)
        self.assertFalse(result["correct"], log)
        self.assertIn("CORRECTNESS: pass 0: bill_dollars", log)


if __name__ == "__main__":
    unittest.main()
