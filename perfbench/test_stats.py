"""Tests for the benchmark's statistics: python3 -m unittest perfbench/test_stats.py"""

import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [7.0, 1.0, 4.0, 9.0, 2.0, 8.0, 3.0, 6.0, 5.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_known_values(self):
        # Exclusive method on 1..9: positions (n + 1) / 4 = 2.5 and 7.5.
        self.assertEqual(stats.quartiles([float(i) for i in range(1, 10)]),
                         (2.5, 5.0, 7.5))

    def test_spread_is_iqr_over_median(self):
        values = [float(i) for i in range(1, 10)]
        self.assertAlmostEqual(stats.spread(values), (7.5 - 2.5) / 5.0)

    def test_spread_of_constant_is_zero(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)

    def test_too_few_raises(self):
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])


class TailTest(unittest.TestCase):
    def test_exactly_ten_beyond(self):
        values = [float(i) for i in range(1, 101)]  # 1..100
        value, level = stats.tail(values)
        self.assertEqual(value, 90.0)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(level, 0.90)

    def test_eleven_samples_gives_minimum(self):
        values = [float(i) for i in range(11, 0, -1)]
        self.assertEqual(stats.tail(values), (1.0, 1 / 11))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0] * 5
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_ties_count_as_samples(self):
        values = [1.0] * 20 + [2.0] * 10
        self.assertEqual(stats.tail(values), (1.0, 20 / 30))

    def test_thin_sample_returns_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 1.0))
        self.assertEqual(stats.tail([float(i) for i in range(10)]), (9.0, 1.0))

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class QuietTest(unittest.TestCase):
    def test_keeps_every_quiet_sample_over_the_whole_run(self):
        q = stats.QUIET_NOISE
        noise = [q, q + 0.3, q, q + 0.2, q, q, q, q + 0.5, q, q]
        self.assertEqual(stats.quiet(list(range(10)), noise), [0, 2, 4, 5, 6, 8, 9])

    def test_equal_noise_keeps_everything(self):
        # No bias toward early samples when the noise never varies.
        self.assertEqual(stats.quiet(list(range(20)), [0.2] * 20), list(range(20)))
        self.assertEqual(stats.quiet(list(range(20)), [0.0] * 20), list(range(20)))

    def test_too_few_quiet_takes_the_least_noisy(self):
        noise = [0.3, 0.0, 0.2, 0.1, 0.4, 0.25, 0.15, 0.35]
        kept = stats.quiet(list(range(8)), noise)
        self.assertEqual(len(kept), stats.MIN_QUIET)
        self.assertEqual(kept, [0, 1, 2, 3, 5, 6])

    def test_ties_at_the_cut_are_kept_together(self):
        noise = [0.1, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.3]
        self.assertEqual(stats.quiet(list(range(8)), noise), [0, 1, 2, 3, 4, 5, 6])

    def test_fewer_samples_than_the_minimum_keeps_all(self):
        self.assertEqual(stats.quiet([5, 1, 9], [0.2, 0.0, 0.3]), [5, 1, 9])
        self.assertEqual(stats.quiet([], []), [])

    def test_length_mismatch_raises(self):
        with self.assertRaises(ValueError):
            stats.quiet([1, 2], [0.0])


if __name__ == "__main__":
    unittest.main()
