"""Tests for the benchmark's own statistics and metric catalog.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import random
import statistics
import unittest

import compare
import run
import stats

HERE = os.path.dirname(os.path.abspath(__file__))


class QuantileTest(unittest.TestCase):
    def test_exact_order_statistics(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.quantile(xs, 0.0), 1.0)
        self.assertEqual(stats.quantile(xs, 0.5), 3.0)
        self.assertEqual(stats.quantile(xs, 1.0), 5.0)
        self.assertAlmostEqual(stats.quantile(xs, 0.25), 2.0)

    def test_interpolates_between_neighbours(self):
        xs = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(stats.quantile(xs, 0.99), 99.01)
        self.assertAlmostEqual(stats.quantile(xs, 0.5), 50.5)

    def test_matches_inclusive_definition(self):
        rng = random.Random(7)
        xs = [rng.expovariate(1.0) for _ in range(1001)]
        ref = statistics.quantiles(xs, n=100, method="inclusive")
        self.assertAlmostEqual(stats.quantile(xs, 0.99), ref[98])
        self.assertAlmostEqual(stats.quantile(xs, 0.50), statistics.median(xs))

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.quantile([], 0.5)
        with self.assertRaises(ValueError):
            stats.quantile([1.0], 1.5)

    def test_iqr_matches_reference_spread(self):
        xs = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.8, 9.7, 10.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.iqr(xs), q3 - q1)
        self.assertAlmostEqual(stats.iqr_share(xs), (q3 - q1) / q2)
        self.assertEqual(stats.iqr_share([2.0] * 10), 0.0)


class VerdictTest(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

    def test_improved_needs_win_rate_and_gap(self):
        change = [x - 1.0 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         stats.IMPROVED)
        self.assertEqual(stats.verdict(self.parent, change, "higher", 0.1),
                         stats.WORSE)

    def test_small_gap_is_unchanged(self):
        change = [x - 0.01 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         stats.UNCHANGED)

    def test_worse_beyond_bound(self):
        change = [x * 1.2 for x in self.parent]
        change[0] = 9.0  # one lost pair: not a 9/10 loss, still past bound
        change[1] = 9.0
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         stats.WORSE)

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
        change = [x * 1.05 for x in noisy[::-1]]
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1),
                         stats.UNRESOLVED)

    def test_ties_count_for_neither(self):
        change = list(self.parent)
        self.assertEqual(stats.verdict(self.parent, change, "lower", None),
                         stats.UNCHANGED)


class CatalogTest(unittest.TestCase):
    def test_layers_json_covers_every_layer_metric(self):
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)
        self.assertEqual(list(layers), [m["name"] for m in run.LAYERS])
        for name, where in layers.items():
            self.assertTrue(set(where["measured_on"]) <= set(run.WORKLOADS),
                            name)
            self.assertTrue(where["moves"], name)

    def test_end_to_end_reports_every_benchmark_metric(self):
        raw = {"series": {"done_s": [0.5, 1.0, 1.5, 2.0],
                          "done_problems": [4, 4, 4, 4]},
               "window": 2, "problems": 16, "timed_s": 2.0,
               "latency_ms": [1.0, 2.0, 3.0], "setup_s": [0.2, 0.1, 0.3],
               "peak_rss_kb": 2048}
        got = run.end_to_end(raw)
        self.assertEqual(list(got), [m["name"] for m in run.END_TO_END])
        self.assertEqual(got["throughput_pps"], 8.0)
        self.assertEqual(got["latency_p50_ms"], 2.0)
        self.assertEqual(got["setup_s"], 0.2)
        self.assertEqual(got["peak_rss_mb"], 2.0)

    def test_compare_pairs_by_seed(self):
        def rec(seed, v):
            return {"workload": "w", "trace": 0, "seed": seed,
                    "metrics": {"latency_p50_ms": {"value": v, "unit": "ms"}}}
        parent = {("w", 0, s): rec(s, 10.0 + 0.01 * s) for s in range(10)}
        change = {("w", 0, s): rec(s, 8.0 + 0.01 * s) for s in range(10)}
        rows = compare.compare(parent, change,
                               {"latency_p50_ms": ("lower", 0.1)})
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0][-1], stats.IMPROVED)


if __name__ == "__main__":
    unittest.main()
