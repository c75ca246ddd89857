#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/test_smoke.py        (from the root of a checkout)

Builds the driver through run.py, then, on the fast `proven` workload:
  * every end-to-end and every per-layer metric BENCHMARK.json names is
    printed, as a line and in the result, with its unit;
  * the deterministic counts repeat exactly across two traced runs;
  * the verdict check fires against a deliberately wrong reference;
and on `serve`, the session check fires against a wrong offline row.
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOAD = "proven"

# Counts a later change may cite as counts: they must repeat bit-for-bit.
EXACT_COUNTS = [
    "vm.insts", "svd.events", "svd.pruned_events", "svd.filtered_events",
    "svd.cus_formed", "svd.reports", "svd.skip_ratio",
    "svd.skipped_event_share", "analysis.proven_cus",
    "analysis.thread_local_sites", "shadow.pages", "shadow.bytes_per_addr",
    "shadow.budget_evictions", "serve.frames", "serve.wire_bytes",
    "serve.shard_skew", "serve.backoff_waits",
]


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = bench.build(ROOT)

    def run_bench(self, seed, trace, reference=None, workload=WORKLOAD):
        return bench.run(ROOT, self.exe, workload, seed, 1, trace, reference)

    def assert_metrics(self, lines, result, specs):
        for m in specs:
            name, unit = m["name"], m["unit"]
            self.assertIn(name, result["metrics"])
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertTrue(
                any(l.split()[:1] == [name] and l.split()[-1] == unit
                    for l in lines), f"no '{name} <value> {unit}' line")

    def test_end_to_end_metrics_print_with_units(self):
        lines, result = self.run_bench(seed=1, trace=0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assert_metrics(lines, result, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_layer_metrics_print_and_counts_repeat(self):
        runs = [self.run_bench(seed=3, trace=1) for _ in range(2)]
        for lines, result in runs:
            self.assertTrue(result["correct"])
            self.assert_metrics(lines, result, SPEC["per_layer"])
        first, second = (r["metrics"] for _, r in runs)
        for name in EXACT_COUNTS:
            self.assertEqual(first[name]["value"], second[name]["value"], name)
        # The workload's point: every memory event skips the detector.
        self.assertGreater(first["svd.skip_ratio"]["value"], 0.5)

    def run_with_wrong_reference(self, workload, detector):
        """Runs with every `detector` row's step count off by one."""
        good = os.path.join(HERE, "reference", f"{workload}.tsv")
        with open(good) as src, tempfile.NamedTemporaryFile(
                "w", suffix=".tsv", delete=False) as wrong:
            for line in src:
                fields = line.split()
                if not line.startswith("#") and fields[1] == detector:
                    fields[3] = str(int(fields[3]) + 1)
                    line = " ".join(fields) + "\n"
                wrong.write(line)
        try:
            _, result = self.run_bench(seed=1, trace=0, reference=wrong.name,
                                       workload=workload)
        finally:
            os.unlink(wrong.name)
        return result

    def test_wrong_reference_fails_the_verdict(self):
        result = self.run_with_wrong_reference(WORKLOAD, "svd")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_wrong_offline_reference_fails_every_serve_session(self):
        result = self.run_with_wrong_reference("serve", "offline")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
