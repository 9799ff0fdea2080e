#!/usr/bin/env python3
"""The benchmark's own tests.

  python3 perfbench/selftest.py            # arithmetic + tiny runs
  python3 perfbench/selftest.py Arithmetic # arithmetic only (no build)

Arithmetic checks the percentile, warm/cold split and self-time code in
ledger.py.  TinyRuns runs all three workloads through run.py --tiny, traced
and untraced, and asserts that the result line has exactly the contract's
keys, that every metric named in BENCHMARK.json is printed with its unit,
and that every correctness check passed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import ledger  # noqa: E402

ROOT = HERE.parent


def span(id_, name, start, end, parent=0, op=1, **args):
    return {"id": id_, "name": name, "parent": parent, "op": op,
            "start_ns": start, "end_ns": end, "args": args}


class Arithmetic(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(ledger.percentile(xs, 0), 1.0)
        self.assertEqual(ledger.percentile(xs, 100), 4.0)
        self.assertAlmostEqual(ledger.median(xs), 2.5)
        self.assertAlmostEqual(ledger.percentile(xs, 90), 3.7)
        self.assertEqual(ledger.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            ledger.percentile([], 50)

    def test_median_of_odd_count_is_the_middle_sample(self):
        self.assertEqual(ledger.median([5.0, 1.0, 9.0]), 5.0)

    def test_warm_cold_split_follows_update_stats(self):
        # A graph-level decrease can be a G'-level increase: only the
        # `incremental` flag decides, never the direction of the change.
        updates = [{"ms": 10.0, "incremental": True},
                   {"ms": 900.0, "incremental": False},
                   {"ms": 12.0, "incremental": True},
                   {"ms": 950.0, "incremental": False}]
        warm, cold = ledger.split_updates(updates)
        self.assertEqual(warm, [10.0, 12.0])
        self.assertEqual(cold, [900.0, 950.0])

    def test_self_time_subtracts_union_of_children(self):
        spans = [span(1, "op.build", 0, 100),
                 span(2, "frt.tree", 10, 30, parent=1),
                 span(3, "frt.tree", 20, 50, parent=1),   # overlaps 2
                 span(4, "index.build", 40, 45, parent=3),
                 span(5, "frt.tree", 90, 120, parent=1)]  # runs past parent
        selfs = ledger.self_times(spans)
        self.assertEqual(selfs[1], 100 - (40 + 10))  # [10,50) ∪ [90,100)
        self.assertEqual(selfs[3], 30 - 5)  # grandchildren count once
        self.assertEqual(selfs[4], 5)
        self.assertAlmostEqual(ledger.layer_self_ms(spans)["frt"],
                               (20 + 25 + 30) / 1e6)

    def test_covered_clips_and_merges(self):
        self.assertEqual(ledger.covered_ns(0, 10, [(-5, 3), (2, 4), (8, 20)]),
                         6)
        self.assertEqual(ledger.covered_ns(0, 10, []), 0)

    def test_layer_of(self):
        self.assertEqual(ledger.layer_of("kernel.query_batch.zipf"), "kernel")
        self.assertEqual(ledger.layer_of("setup"), "setup")


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json") as f:
            cls.bench = json.load(f)

    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_metric_on_every_workload(self):
        for w in self.bench["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = self.run_workload(w["name"], trace)
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.bench[key]}
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
