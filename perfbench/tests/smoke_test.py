#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size.

Runs every workload for one second, end to end and traced, through the same
entry point the benchmark command uses, and checks that each run emits every
metric BENCHMARK.json names, with its unit, and that no op fails. Run from
the repository root:

    python3 perfbench/tests/smoke_test.py
"""
import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 3


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    spec = load_spec()
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                           "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        spec = load_spec()
        result, stdout = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, stdout)
        expected = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for metric in expected:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])
        if trace:
            self.assertIn("trace overhead", stdout)
            self.assertIn("attribution", stdout)


def add_cases():
    for workload in [w["name"] for w in load_spec()["workloads"]]:
        for trace in (0, 1):
            name = f"test_{workload.replace('-', '_')}_trace{trace}"
            setattr(SmokeTest, name, lambda self, w=workload, t=trace: self.check(w, t))


add_cases()

if __name__ == "__main__":
    unittest.main(verbosity=2)
