"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import unittest

import run
import stats


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        values = list(range(1, 101))  # p90 -> rank 90, 10 samples beyond
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertIsNone(stats.percentile(values, 91))
        self.assertIsNone(stats.percentile(values[:99], 90))

    def test_p99_needs_a_thousand(self):
        self.assertIsNone(stats.percentile(list(range(999)), 99))
        self.assertEqual(stats.percentile(list(range(1000)), 99), 989)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(200)]
        self.assertEqual(stats.percentile(list(reversed(values)), 90),
                         stats.percentile(values, 90))


class SelfTime(unittest.TestCase):
    # rows: [name, start, end, id, parent, request]
    def test_leaf_is_its_duration(self):
        spans = [["a", 1.0, 3.5, 1, 0, 7]]
        self.assertEqual(stats.self_times(spans), {1: 2.5})

    def test_children_subtracted_once(self):
        spans = [["root", 0.0, 10.0, 1, 0, 1],
                 ["x", 1.0, 4.0, 2, 1, 1],
                 ["y", 3.0, 6.0, 3, 1, 1],   # overlaps x by 1
                 ["z", 2.0, 3.0, 4, 2, 1]]   # grandchild: not root's
        selves = stats.self_times(spans)
        self.assertAlmostEqual(selves[1], 10.0 - 5.0)
        self.assertAlmostEqual(selves[2], 3.0 - 1.0)
        self.assertAlmostEqual(selves[3], 3.0)
        self.assertAlmostEqual(selves[4], 1.0)

    def test_child_clipped_to_parent(self):
        spans = [["p", 0.0, 2.0, 1, 0, 1], ["c", 1.5, 3.0, 2, 1, 1]]
        self.assertAlmostEqual(stats.self_times(spans)[1], 1.5)

    def test_by_name(self):
        spans = [["a", 0.0, 1.0, 1, 0, 1], ["a", 0.0, 2.0, 2, 0, 2],
                 ["b", 0.5, 1.0, 3, 2, 2]]
        self.assertEqual(stats.self_times_by_name(spans),
                         {"a": [1.0, 1.5], "b": [0.5]})


class Geomean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(stats.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(stats.geomean([0.5, 2.0, 1.0, 1.0]), 1.0)
        self.assertAlmostEqual(stats.geomean([3.0]), 3.0)

    def test_rejects_non_positive(self):
        for bad in ([], [1.0, 0.0], [-1.0]):
            with self.assertRaises(ValueError):
                stats.geomean(bad)

    def test_ratio_of_geomeans_is_geomean_of_ratios(self):
        seq, tiled = [4.0, 9.0, 1.0], [2.0, 3.0, 4.0]
        self.assertAlmostEqual(
            stats.geomean(seq) / stats.geomean(tiled),
            stats.geomean([a / b for a, b in zip(seq, tiled)]))


def fake_raw(workload):
    """A minimal driver record with every sample list the metrics read."""
    samples = {"cold.novel": [0.1] * 20, "cold.repeat": [0.001] * 200,
               "exec.native": [0.01], "interp.verify": [0.002],
               "codegen.cc": [0.05]}
    for k in run.KERNELS:
        for v in ("oracle", "seq", "tiled", "parallel"):
            samples[f"{k}.{v}"] = [0.2, 0.1, 0.3]
    return {"workload": workload, "samples": samples,
            "values": {"timed_s": 10.0}, "peak_rss_mb": 50.0,
            "attempted": 1, "failed": 0,
            "spans": [["ir.parse", 0.0, 1e-4, 1, 0, 1]]}


class MetricNames(unittest.TestCase):
    """run.py computes every metric BENCHMARK.json names, on every
    workload."""

    def test_every_metric_on_every_workload(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for w in spec["workloads"]:
            raw = fake_raw(w["name"])
            e2e = run.end_to_end(raw, 1.0)
            layer = run.per_layer(raw)
            for m in spec["end_to_end"]:
                self.assertTrue(math.isfinite(e2e[m["name"]]), m["name"])
                self.assertGreater(e2e[m["name"]], 0, m["name"])
            for m in spec["per_layer"]:
                self.assertTrue(math.isfinite(layer[m["name"]]), m["name"])


if __name__ == "__main__":
    unittest.main()
