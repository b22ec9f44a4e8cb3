#!/usr/bin/env python3
"""The benchmark's own test: run every workload briefly, untraced and
traced, and check the result lines against BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/test_run.py

Each workload runs for one second per mode (plus its set-up), so the
whole test takes a few minutes after the first build.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
BATCH = {"fig10", "fig5-axes", "fig10-disk"}


def run(workload, trace, seed=7, seconds=1):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        names = [m["name"] for m in specs]
        self.assertEqual(set(result["metrics"]), set(names), "every named metric, nothing else")
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, lines, result = run(w["name"], 0)
                self.assertEqual(code, 0, "\n".join(lines[-20:]))
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertIn("error_rate 0 ", "\n".join(lines))
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_every_workload_traced_reconciles(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, lines, result = run(w["name"], 1)
                self.assertEqual(code, 0, "\n".join(lines[-20:]))
                self.check_metrics(result, SPEC["per_layer"])
                self.assertEqual(result["failed"], 0)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(m["trace.requests"], 0)
                # The decomposed layer calls account for the untraced call
                # they replace, up to what Session/the service add around
                # them.
                self.assertGreater(m["trace.layer_sum_ms"], 0)
                self.assertLess(abs(m["trace.gap_ratio"]), 0.5, m)
                layers = sum(v for k, v in m.items() if k.startswith("trace.self_ms.") and k != "trace.self_ms.transport")
                self.assertAlmostEqual(layers, m["trace.layer_sum_ms"], delta=1e-6 + 1e-9 * layers)
                if w["name"] in BATCH:
                    self.assertGreater(m["nqe.execute_geomean_ms"], 0)
                else:
                    self.assertGreater(m["service.transport_ms"], 0)
                    self.assertGreater(m["service.handle_us"], 0)
                spans = os.path.join(ROOT, ".bench_build", "perfbench", f"spans-{w['name']}-7.jsonl")
                self.assertTrue(os.path.getsize(spans) > 0, spans)

    def test_bad_arguments_fail(self):
        code, _, _ = run("no-such-workload", 0)
        self.assertNotEqual(code, 0)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1] + sys.argv[1:], verbosity=2)
