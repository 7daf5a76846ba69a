#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny simulated windows.

    python3 perfbench/test_perfbench.py

Each workload runs untraced and traced; every metric BENCHMARK.json names
must be printed with its unit, the correctness checks must pass, two runs
of one seed must agree exactly on the simulated metrics, and an unknown
workload must exit non-zero.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TINY = ["--seconds", "0", "--warmup-ms", "5", "--measure-ms", "20"]
SIMULATED = ["rct_mean_us", "rct_p50_us", "rct_p99_us"]


def bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True)


def result(workload, seed, trace):
    out = bench("--workload", workload, "--seed", str(seed), "--trace", str(trace), *TINY)
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def digest(lines):
    """The simulated-output digest of the first experiment."""
    found = [l.split("digest ")[1].split()[0] for l in lines if "digest " in l]
    return found[0]


class WorkloadSmoke(unittest.TestCase):
    def check_metrics(self, workload, trace, names):
        res, lines = result(workload, 7, trace)
        self.assertTrue(res["correct"], workload)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in names})
        for m in names:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            # The human-readable table has the same metric and unit.
            row = [l.split() for l in lines if l.split()[:1] == [m["name"]]]
            self.assertEqual(len(row), 1, m["name"])
            self.assertEqual(row[0][2], m["unit"], m["name"])
        return res, lines

    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res, untraced = self.check_metrics(w["name"], 0, SPEC["end_to_end"])
                for name in SIMULATED:
                    self.assertGreater(res["metrics"][name]["value"], 0)
                _, traced = self.check_metrics(w["name"], 1, SPEC["per_layer"])
                # The traced run observes the first experiment of the set.
                self.assertIn(digest(traced), digest(untraced))

    def test_same_seed_repeats_simulated_metrics(self):
        a, _ = result("paper-das", 11, 0)
        b, _ = result("paper-das", 11, 0)
        c, _ = result("paper-das", 12, 0)
        for name in SIMULATED:
            self.assertEqual(a["metrics"][name], b["metrics"][name], name)
        self.assertNotEqual(a["metrics"]["rct_mean_us"], c["metrics"]["rct_mean_us"])

    def test_unknown_workload_exits_nonzero(self):
        out = bench("--workload", "no-such-workload", "--seed", "1", *TINY)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
