"""Self-tests for spread.py's quartile, spread and agreement helpers.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import spread

LOWER = {"name": "wall_s", "better": "lower", "bound": 0.1}
HIGHER = {"name": "guest_insns_per_s", "better": "higher", "bound": 0.1}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}


class Helpers(unittest.TestCase):
    def test_quartiles(self):
        # The exclusive method: two samples extrapolate past their range.
        self.assertEqual(spread.quartiles([float(i) for i in range(1, 11)]), [2.75, 5.5, 8.25])
        self.assertEqual(spread.quartiles([5.0, 2.0, 4.0, 1.0, 3.0]), [1.5, 3.0, 4.5])
        self.assertEqual(spread.quartiles([2.0, 1.0]), [0.75, 1.5, 2.25])

    def test_spread(self):
        self.assertAlmostEqual(spread.spread([float(i) for i in range(1, 11)]), 5.5 / 5.5)
        self.assertEqual(spread.spread([2.0] * 10), 0.0)

    def test_worse_share_direction(self):
        self.assertAlmostEqual(spread.worse_share([10.0, 10.0], [11.0, 11.0], "lower"), 0.1)
        self.assertAlmostEqual(spread.worse_share([10.0, 10.0], [11.0, 11.0], "higher"), -0.1)

    def test_agreement(self):
        steady = [1.0, 1.01, 0.99, 1.0, 1.02]
        self.assertEqual(spread.agreement(steady, steady, LOWER), [])
        slower = [x * 1.2 for x in steady]
        self.assertEqual(len(spread.agreement(steady, slower, LOWER)), 1)
        self.assertEqual(spread.agreement(steady, slower, HIGHER), [])
        noisy = [1.0, 2.0, 0.5, 1.5, 1.0]
        self.assertTrue(spread.agreement(noisy, steady, LOWER))
        # setup_s is judged on its median only.
        self.assertEqual(spread.agreement(noisy, noisy, SETUP), [])

    def test_parse_seeds(self):
        self.assertEqual(spread.parse_seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
