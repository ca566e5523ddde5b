"""Tests of the benchmark's statistics and of its metric tables.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest
from pathlib import Path

import run
import stats


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q[0], q[2]))
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0))

    def test_quantile_needs_ten_samples_beyond(self):
        self.assertTrue(stats.supported(1000, 0.99))
        self.assertFalse(stats.supported(999, 0.99))
        self.assertTrue(stats.supported(10000, 0.999))
        self.assertFalse(stats.supported(9999, 0.999))
        self.assertTrue(stats.supported(20, 0.5))
        self.assertFalse(stats.supported(19, 0.5))

    def test_highest_supported_quantile(self):
        self.assertEqual(stats.highest_supported(100000), 0.9999)
        self.assertEqual(stats.highest_supported(1000), 0.99)
        self.assertEqual(stats.highest_supported(120), 0.9)
        self.assertIsNone(stats.highest_supported(4))

    def test_digest_mismatches_counts_runs_off_the_majority(self):
        self.assertEqual(stats.digest_mismatches([]), 0)
        self.assertEqual(stats.digest_mismatches(["a", "a", "a"]), 0)
        self.assertEqual(stats.digest_mismatches(["a", "b", "a"]), 1)
        self.assertEqual(stats.digest_mismatches(["a", "b", "c", "a"]), 2)

    def test_outcome_counts_digest_mismatch_as_failure(self):
        outcome = run.Outcome()
        passes = [{"digest": d} for d in ("x", "x", "y")]
        outcome.check_digests(passes, "w")
        self.assertEqual((outcome.attempted, outcome.failed), (3, 1))

    def test_smoke_and_full_digests_are_kept_apart(self):
        exe = b"the same build"
        smoke = run.history_key("serve_sweep", 1, True, exe)
        full = run.history_key("serve_sweep", 1, False, exe)
        self.assertNotEqual(smoke, full)
        self.assertEqual(full, run.history_key("serve_sweep", 1, False, exe))
        self.assertNotEqual(full, run.history_key("serve_sweep", 2, False,
                                                  exe))


class MetricTables(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics run.py reports."""

    @classmethod
    def setUpClass(cls):
        path = Path(run.ROOT) / "BENCHMARK.json"
        cls.spec = json.loads(path.read_text())

    def test_workloads(self):
        names = tuple(w["name"] for w in self.spec["workloads"])
        self.assertEqual(names, run.WORKLOADS)

    def test_end_to_end(self):
        got = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(got, run.END_TO_END)
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_per_layer(self):
        got = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(got, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
