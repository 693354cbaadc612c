#!/usr/bin/env python3
"""Unit tests of scripts/ab.py's statistics on synthetic samples.

    python3 -B -m unittest discover -s scripts -p 'test_ab.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import ab  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_inclusive_interpolation(self):
        self.assertEqual(ab.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
        self.assertEqual(ab.quartiles([4, 1, 3, 2]), (1.75, 2.5, 3.25))

    def test_single_sample(self):
        self.assertEqual(ab.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            ab.quartiles([])


class SignTest(unittest.TestCase):
    def test_exact_two_sided_values(self):
        self.assertAlmostEqual(ab.sign_test(10, 0), 2 / 1024)
        self.assertAlmostEqual(ab.sign_test(0, 10), 2 / 1024)
        self.assertAlmostEqual(ab.sign_test(9, 1), 22 / 1024)
        self.assertAlmostEqual(ab.sign_test(8, 2), 112 / 1024)

    def test_even_split_and_no_pairs(self):
        self.assertEqual(ab.sign_test(5, 5), 1.0)
        self.assertEqual(ab.sign_test(0, 0), 1.0)


class Compare(unittest.TestCase):
    def test_clear_gain_is_better(self):
        parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
        change = [0.90, 0.91, 0.89, 0.92, 0.88, 0.90, 0.91, 0.89, 0.90, 0.90]
        s = ab.compare(parent, change)
        self.assertEqual(s["verdict"], "better")
        self.assertEqual((s["wins"], s["losses"], s["pairs"]), (10, 0, 10))
        self.assertAlmostEqual(s["diff"], -0.10)
        self.assertAlmostEqual(s["rel"], -0.10)
        self.assertLess(s["p"], 0.01)
        self.assertTrue(s["claimable"])

    def test_gain_with_too_few_wins_is_not_claimable(self):
        # Beyond the parent's IQR in the median, but 8 of 10 pairs.
        parent = [1.0] * 10
        change = [0.8] * 8 + [1.1, 1.1]
        s = ab.compare(parent, change)
        self.assertEqual(s["verdict"], "better")
        self.assertEqual(s["wins"], 8)
        self.assertFalse(s["claimable"])

    def test_clear_loss_is_worse(self):
        parent = [1.0, 1.0, 1.0, 1.0]
        change = [1.2, 1.2, 1.2, 1.2]
        s = ab.compare(parent, change)
        self.assertEqual(s["verdict"], "worse")
        self.assertEqual(s["wins"], 0)
        self.assertFalse(s["claimable"])

    def test_gain_within_parent_iqr_is_unresolved(self):
        # Every pair won, but the parent's spread covers the effect.
        parent = [1.0, 1.5, 2.0, 2.5, 3.0]
        change = [0.9, 1.4, 1.9, 2.4, 2.9]
        s = ab.compare(parent, change)
        self.assertEqual(s["wins"], 5)
        self.assertEqual(s["verdict"], "unresolved")

    def test_iqr_equal_to_difference_is_unresolved(self):
        parent = [1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0]  # IQR 2.5 - 1.5
        change = [x - 1.0 for x in parent]
        s = ab.compare(parent, change)
        self.assertEqual(s["parent_iqr"], 1.0)
        self.assertEqual(s["diff"], -1.0)
        self.assertEqual(s["verdict"], "unresolved")

    def test_ties_are_dropped_from_the_sign_test(self):
        s = ab.compare([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.5])
        self.assertEqual((s["wins"], s["losses"]), (1, 0))
        self.assertEqual(s["p"], 1.0)

    def test_unpaired_samples_are_an_error(self):
        with self.assertRaises(ValueError):
            ab.compare([1.0, 2.0], [1.0])


if __name__ == "__main__":
    unittest.main()
