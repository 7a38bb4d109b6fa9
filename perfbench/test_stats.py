"""Self-tests of the benchmark's own arithmetic and workload definitions.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import run
import stats


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(range(10)))
        self.assertIsNone(stats.tail_percentile(range(19)))
        # 20 samples: the median (rank 10) has exactly 10 above it.
        self.assertEqual(stats.tail_percentile(range(1, 21)), (50.0, 10))

    def test_picks_highest_level(self):
        xs = list(range(1, 201))  # p95 = rank 190, 10 beyond; p99 has 2
        self.assertEqual(stats.tail_percentile(xs), (95.0, 190))
        xs = list(range(1, 1001))  # p99 = rank 990, 10 beyond
        self.assertEqual(stats.tail_percentile(xs), (99.0, 990))

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 4.0] * 10
        self.assertEqual(stats.tail_percentile(xs),
                         stats.tail_percentile(sorted(xs)))


class GeoMean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(stats.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(stats.geomean([3.0]), 3.0)
        self.assertAlmostEqual(stats.geomean([1e-3, 1e3, 1.0]), 1.0)

    def test_weights_small_and_large_equally(self):
        # Halving one value moves the mean as much whatever its size.
        base = stats.geomean([1.0, 1000.0])
        self.assertAlmostEqual(stats.geomean([0.5, 1000.0]) / base,
                               stats.geomean([1.0, 500.0]) / base)

    def test_rejects_non_positive(self):
        for bad in ([], [1.0, 0.0], [-1.0]):
            with self.assertRaises(ValueError):
                stats.geomean(bad)


class TwoLengthFit(unittest.TestCase):
    def test_recovers_line(self):
        fixed, per_step = stats.two_length_fit(10, 0.5 + 10 * 0.02,
                                               20, 0.5 + 20 * 0.02)
        self.assertAlmostEqual(fixed, 0.5)
        self.assertAlmostEqual(per_step, 0.02)

    def test_order_of_lengths(self):
        self.assertEqual(stats.two_length_fit(2, 3.0, 4, 5.0),
                         stats.two_length_fit(4, 5.0, 2, 3.0))

    def test_equal_lengths_rejected(self):
        with self.assertRaises(ValueError):
            stats.two_length_fit(5, 1.0, 5, 2.0)


class FailAccounting(unittest.TestCase):
    def test_ratio(self):
        f = stats.FailCount()
        self.assertEqual(f.ratio(), 0.0)
        f.add(1)
        f.add(237, 3, "report cells")
        f.add(4, 0)
        self.assertEqual((f.attempted, f.failed), (242, 3))
        self.assertAlmostEqual(f.ratio(), 3 / 242)
        self.assertEqual(f.reasons, ["report cells"])

    def test_rejects_impossible_counts(self):
        f = stats.FailCount()
        for attempted, failed in ((1, 2), (-1, 0), (1, -1)):
            with self.assertRaises(ValueError):
                f.add(attempted, failed)

    def test_check_op_counts_errors_and_mismatches(self):
        refs = {"ops rtm 28x28x28 20": 14.0}
        f = stats.FailCount()
        run.check_op({"spec": "ops rtm threads 28x28x28 20",
                      "checksum": 14.0}, refs, f)
        run.check_op({"spec": "ops rtm threads 28x28x28 20",
                      "checksum": 14.1}, refs, f)
        run.check_op({"spec": "ops rtm threads 28x28x28 20",
                      "error": "boom"}, refs, f)
        run.check_op({"spec": "ops acoustic threads 30x30x30 20",
                      "checksum": 1.0}, refs, f)  # no stored reference
        run.check_op({"spec": "report rtm model 0x0x0 0", "cells": 40,
                      "failed_cells": 2}, refs, f)
        self.assertEqual((f.attempted, f.failed), (44, 5))


class EndToEnd(unittest.TestCase):
    STATUS = {"peak_rss_mb": 10.0}

    def test_step_ms_is_geomean_of_cell_medians(self):
        samples = {
            "ops rtm threads 28x28x28 20": [
                {"wall_s": 0.02, "steps": 20}, {"wall_s": 0.04, "steps": 20},
                {"wall_s": 0.03, "steps": 20}],
            "ops rtm sycl-nd 28x28x28 20": [{"wall_s": 0.08, "steps": 20}],
        }
        v = run.end_to_end("dispatch", [1.0, 3.0, 2.0], [0.5, 0.7],
                           samples, self.STATUS, stats.FailCount())
        self.assertAlmostEqual(v["step_ms"], stats.geomean([1.5, 4.0]))
        self.assertEqual((v["setup_s"], v["wall_s"]), (2.0, 0.6))
        self.assertEqual(v["pass_ratio"], 1.0)

    def test_report_step_is_one_cell(self):
        samples = {"report rtm model 0x0x0 0": [{"cells": 30}],
                   "report mgcfd model 0x0x0 0": [{"cells": 10}]}
        v = run.end_to_end("report", [0.1], [2.0, 4.0, 3.0], samples,
                           self.STATUS, stats.FailCount())
        self.assertAlmostEqual(v["step_ms"], 3.0 / 40 * 1e3)


class Tolerance(unittest.TestCase):
    def test_relative(self):
        self.assertTrue(stats.within_tolerance(1.0 + 5e-10, 1.0, 1e-9))
        self.assertFalse(stats.within_tolerance(1.0 + 2e-9, 1.0, 1e-9))
        self.assertTrue(stats.within_tolerance(-1e6 - 1e-4, -1e6, 1e-9))

    def test_exact(self):
        self.assertTrue(stats.within_tolerance(0.1 + 0.2, 0.1 + 0.2, 0.0))
        self.assertFalse(stats.within_tolerance(0.1 + 0.2, 0.3, 0.0))

    def test_missing_or_non_finite(self):
        self.assertFalse(stats.within_tolerance(None, 1.0, 1e-9))
        self.assertFalse(stats.within_tolerance(1.0, None, 1e-9))
        self.assertFalse(stats.within_tolerance(float("nan"), 1.0, 1e-9))


class SeedOnlyPermutes(unittest.TestCase):
    def test_every_workload(self):
        for name in run.WORKLOADS:
            setup_a, ops = run.workload_ops(name)
            setup_b, ops_b = run.workload_ops(name)
            self.assertEqual((setup_a, ops), (setup_b, ops_b))
            for i in range(5):
                a = stats.interleave(ops, 1, i)
                b = stats.interleave(ops, 2, i)
                self.assertEqual(sorted(a), sorted(ops))
                self.assertEqual(sorted(b), sorted(ops))
                self.assertEqual(a, stats.interleave(ops, 1, i))

    def test_seed_changes_order(self):
        items = list(range(18))
        orders = {tuple(stats.interleave(items, s, 0)) for s in range(10)}
        self.assertGreater(len(orders), 1)


class SelfTime(unittest.TestCase):
    def test_children_subtracted(self):
        ev = [
            {"cat": "bench", "dur": 100.0, "args": {"id": 0, "parent": -1}},
            {"cat": "apps", "dur": 60.0, "args": {"id": 1, "parent": 0}},
            {"cat": "study", "dur": 20.0, "args": {"id": 2, "parent": 0}},
            {"cat": "study", "dur": 5.0, "args": {"id": 3, "parent": 2}},
        ]
        t = stats.self_times(ev)
        self.assertEqual(t["bench"]["self_us"], 20.0)
        self.assertEqual(t["apps"]["self_us"], 60.0)
        self.assertEqual(t["study"]["self_us"], 20.0)
        self.assertEqual(t["study"]["spans"], 2)


class BenchmarkJson(unittest.TestCase):
    def test_lists_what_run_py_reports(self):
        path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.per_layer_units())
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         list(run.END_TO_END_UNITS))


if __name__ == "__main__":
    unittest.main()
