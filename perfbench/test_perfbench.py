#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/test_perfbench.py

Builds the harness (as run.py does) and checks that every metric named in
BENCHMARK.json is emitted with its unit, that the count metrics repeat
exactly for a fixed seed, and that a small hand-checked mix has no failed
flows.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = "0.01"

# Per-layer metrics that are counts or ratios of counts: exact for a seed.
COUNT_METRICS = [
    "classify.analyzed_pkt_share",
    "triage.escalated_share",
    "triage.escalated_alerting_share",
    "cache.hit_ratio",
    "extract.frames_per_unit",
    "arch.traces_per_kb",
    "ir.lifted_insns_per_byte",
    "semantic.tries_per_trace",
    "semantic.budget_exhausted_units",
]


def bench(workload, seed, trace, scale=SCALE):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "0.05",
         "--trace", str(trace), "--scale", scale],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def check_shape(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})

    def test_end_to_end_metrics_emitted_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = bench(w, 7, 0)
                self.check_shape(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics_emitted_and_counts_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = bench(w, 7, 1)
                second = bench(w, 7, 1)
                self.check_shape(first, SPEC["per_layer"])
                for name in COUNT_METRICS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_hand_checked_mix(self):
        # wire_mix at scale 0.001: 100 benign flows, 3 Code Red II hosts
        # and 1 unique exploit, each attacker scanning first. Every worm
        # request and the exploit are units; triage escalates all four;
        # the first worm request misses the cache, the other two hit.
        result = bench("wire_mix", 3, 1, scale="0.001")
        self.assertEqual(result["attempted"], 104)
        self.assertEqual(result["failed"], 0)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(m["triage.escalated_share"], 1.0)
        self.assertEqual(m["cache.hit_ratio"], 0.5)
        self.assertEqual(m["triage.escalated_alerting_share"], 1.0)


if __name__ == "__main__":
    unittest.main()
