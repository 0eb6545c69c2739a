"""Unit checks of run.py's counting and recorded-value comparison.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import sys
import unittest

sys.dont_write_bytecode = True

import run  # noqa: E402


class OkRatio(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(run.ok_ratio(10, 0), 1.0)
        self.assertEqual(run.ok_ratio(8, 2), 0.75)
        self.assertEqual(run.ok_ratio(3, 3), 0.0)

    def test_bad_counts(self):
        for attempted, failed in ((0, 0), (1, 2), (5, -1)):
            with self.assertRaises(ValueError):
                run.ok_ratio(attempted, failed)


class CompareRecorded(unittest.TestCase):
    def test_simulated_statistics_must_match_exactly(self):
        rec = {"analyze.x": [1.0, 2.0]}
        self.assertTrue(run.compare_recorded({"analyze.x": [1.0, 2.0]}, rec)[0][1])
        self.assertFalse(
            run.compare_recorded({"analyze.x": [1.0, 2.0000000001]}, rec)[0][1])

    def test_logits_within_tolerance_of_row_max(self):
        want = [0.5] + [0.0] * 9
        rec = {"physical.logits": want}
        near = [0.5, 0.4 * run.LOGIT_RTOL] + [0.0] * 8
        far = [0.5, 2 * run.LOGIT_RTOL] + [0.0] * 8
        self.assertTrue(run.compare_recorded({"physical.logits": near}, rec)[0][1])
        self.assertFalse(run.compare_recorded({"physical.logits": far}, rec)[0][1])

    def test_missing_or_resized_values_fail(self):
        self.assertFalse(run.compare_recorded({"analyze.y": [1.0]}, {})[0][1])
        self.assertFalse(run.compare_recorded({"analyze.y": [1.0]},
                                              {"analyze.y": [1.0, 2.0]})[0][1])


if __name__ == "__main__":
    unittest.main()
