"""The tail percentile keeps ten samples beyond it."""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import run  # noqa: E402


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond_the_tail(self):
        samples = [float(x) for x in range(50, 0, -1)]
        self.assertEqual(run.tail(samples), (80.0, 40.0))
        self.assertEqual(sum(s > 40.0 for s in samples), run.TAIL_SAMPLES)

    def test_short_run_reports_its_maximum(self):
        self.assertEqual(run.tail([0.3, 0.1, 0.2]), (100.0, 0.3))


if __name__ == "__main__":
    unittest.main()
