#!/usr/bin/env python3
"""Unit tests for the perf gate's verdict rule, over BENCHMARK.json's bounds.

    python3 bench/test_perf_gate.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perf_gate  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCH = json.load(f)
METRICS = BENCH["end_to_end"]
W = "leak-contended"


def result(failed=0, correct=True, **scale):
    """One run.py result: every metric 100, times scale[name] if given."""
    return {"correct": correct, "attempted": 772, "failed": failed,
            "metrics": {m["name"]: {"value": 100.0 * scale.get(m["name"], 1.0),
                                    "unit": m["unit"]}
                        for m in METRICS}}


def judge(base, head):
    _, failures = perf_gate.verdict([W], METRICS, {W: base}, {W: head})
    return failures


class Verdict(unittest.TestCase):
    def test_identical_runs_pass(self):
        runs = [result() for _ in range(perf_gate.PAIRS)]
        self.assertEqual(judge(runs, runs), [])

    def test_minor_words_up_25pc_fails(self):
        base = [result() for _ in range(5)]
        head = [result(minor_words_per_sim=1.25) for _ in range(5)]
        failures = judge(base, head)
        self.assertEqual(len(failures), 1)
        self.assertIn("minor_words_per_sim", failures[0])

    def test_sim_ms_up_20pc_in_4_of_5_pairs_fails(self):
        base = [result() for _ in range(5)]
        head = [result(sim_ms_p50=1.2)] * 4 + [result()]
        failures = judge(base, head)
        self.assertEqual(len(failures), 1)
        self.assertIn("sim_ms_p50", failures[0])

    def test_sim_ms_up_20pc_in_3_of_5_pairs_passes(self):
        base = [result() for _ in range(5)]
        head = [result(sim_ms_p50=1.2)] * 3 + [result()] * 2
        self.assertEqual(judge(base, head), [])

    def test_improvement_passes(self):
        base = [result() for _ in range(5)]
        head = [result(sim_ms_p50=0.5, minor_words_per_sim=0.5, alloc_ops_per_s=2.0)
                for _ in range(5)]
        self.assertEqual(judge(base, head), [])

    def test_more_failed_on_head_fails(self):
        base = [result() for _ in range(5)]
        head = [result()] * 4 + [result(failed=1, correct=False)]
        failures = judge(base, head)
        self.assertTrue(any("not correct" in f for f in failures))
        self.assertTrue(any("failed 1 simulations" in f for f in failures))

    def test_missing_workload_fails(self):
        runs = [result() for _ in range(5)]
        for base, head in (({}, {W: runs}), ({W: runs}, {}),
                           ({W: runs}, {W: runs[:4] + [None]})):
            _, failures = perf_gate.verdict([W], METRICS, base, head)
            self.assertEqual(len(failures), 1, (base, head))
            self.assertIn(W, failures[0])


if __name__ == "__main__":
    unittest.main()
