#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark.

    python3 perfbench/test_perfbench.py

Builds perfbench through run.py, then runs every workload of
BENCHMARK.json with 20000 keys for one second, untraced and traced. Each
result must be correct, with no failed operation, and carry every metric
BENCHMARK.json names for its mode, with that metric's unit. Two runs at
one seed must also report identical counts and tree shapes.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
KEYS = 20000


def run(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--keys", str(KEYS)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


class PerfbenchSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_present_and_correct(self):
        for workload in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run(workload["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    wanted = self.spec["per_layer" if trace else "end_to_end"]
                    self.assertEqual(
                        sorted(result["metrics"]),
                        sorted(m["name"] for m in wanted))
                    for m in wanted:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                    env = json.loads(lines[-2])["env"]
                    self.assertIn("simd_avx2", env)
                    self.assertIn("build_type", env)

    def test_counts_repeat_at_a_seed(self):
        repeatable = {0: ("sst_probes_per_seek", "filter_bits_per_key"),
                      1: ("lsm.read.observed_fpr", "lsm.tree.files.L1",
                          "lsm.tree.files.L2", "lsm.tree.sst_mb")}
        for workload in ("filter_hot", "scan_cold"):
            for trace, names in repeatable.items():
                with self.subTest(workload=workload, trace=trace):
                    seen = []
                    for _ in range(2):
                        proc = run(workload, trace, seed=11)
                        self.assertEqual(proc.returncode, 0, proc.stderr)
                        lines = proc.stdout.strip().splitlines()
                        metrics = json.loads(lines[-1])["metrics"]
                        env = json.loads(lines[-2])["env"]
                        self.assertTrue(env["tree_repeats"])
                        seen.append([env["tree"]] +
                                    [metrics[n]["value"] for n in names])
                    self.assertEqual(seen[0], seen[1])

    def test_unknown_workload_fails_without_result(self):
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
