"""Unit tests for the benchmark's statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def span(start, end, parent=-1):
    return {"start_ns": start, "end_ns": end, "parent": parent}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(samples, 50), 50)
        self.assertEqual(stats.percentile(samples, 90), 90)
        # Order of the input does not matter.
        self.assertEqual(stats.percentile(samples[::-1], 50), 50)

    def test_rank_rounds_up(self):
        samples = [float(v) for v in range(1, 22)]  # 21 samples
        # ceil(0.5 * 21) = 11th smallest.
        self.assertEqual(stats.percentile(samples, 50), 11.0)

    def test_suppressed_below_ten_beyond(self):
        # p90 of 99 samples is the 90th; only 9 lie beyond it.
        self.assertIsNone(stats.percentile(list(range(99)), 90))
        # With 100 samples exactly ten lie beyond it.
        self.assertIsNotNone(stats.percentile(list(range(100)), 90))
        self.assertIsNone(stats.percentile([], 50))

    def test_custom_min_beyond(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50, min_beyond=0), 2)


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(stats.geomean([1, 100]), 10.0)
        self.assertAlmostEqual(stats.geomean([2, 8, 4]), 4.0)
        self.assertAlmostEqual(stats.geomean([7.5]), 7.5)

    def test_each_value_weighs_the_same(self):
        # Halving a small value moves the mean as much as halving a large one.
        base = stats.geomean([3.0, 900.0])
        self.assertAlmostEqual(stats.geomean([1.5, 900.0]),
                               stats.geomean([3.0, 450.0]))
        self.assertAlmostEqual(stats.geomean([1.5, 900.0]), base / math.sqrt(2))

    def test_undefined(self):
        self.assertIsNone(stats.geomean([]))
        self.assertIsNone(stats.geomean([1.0, 0.0]))


class SelfTimeTest(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(stats.self_times([span(10, 35)]), [25])

    def test_disjoint_children(self):
        spans = [span(0, 100), span(10, 20, 0), span(50, 80, 0)]
        self.assertEqual(stats.self_times(spans), [60, 10, 30])

    def test_overlapping_children_count_once(self):
        # Two client threads under one pass: [10, 60) and [40, 90) cover 80.
        spans = [span(0, 100), span(10, 60, 0), span(40, 90, 0)]
        self.assertEqual(stats.self_times(spans)[0], 20)

    def test_nested_child_inside_sibling(self):
        spans = [span(0, 100), span(10, 90, 0), span(20, 30, 0)]
        self.assertEqual(stats.self_times(spans)[0], 20)

    def test_child_clipped_to_parent(self):
        spans = [span(0, 50), span(40, 70, 0)]
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [span(0, 100), span(0, 50, 0), span(10, 20, 1)]
        self.assertEqual(stats.self_times(spans), [50, 40, 10])


class ErrorRateTest(unittest.TestCase):
    def test_base_is_attempts(self):
        failed, attempted, rate = stats.error_rate(
            ["ok", "wrong", "ok", "failed", "rejected", "ok", "ok", "ok"])
        self.assertEqual((failed, attempted), (3, 8))
        self.assertAlmostEqual(rate, 3 / 8)

    def test_all_ok(self):
        self.assertEqual(stats.error_rate(["ok"] * 5), (0, 5, 0.0))

    def test_no_attempts(self):
        self.assertEqual(stats.error_rate([]), (0, 0, 0.0))


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual(q2, 10.0)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)


if __name__ == "__main__":
    unittest.main()
