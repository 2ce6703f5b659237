"""Unit tests of the benchmark's statistics and verdicts.

    python3 -m unittest bench/e2e/test_stats.py
    python3 bench/e2e/run.py --self-test
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def raw_run(oracle=None, outputs=None, errors=(), lags=()):
    """A minimal raw record as e2e_bench prints it."""
    oracle = {"512x512#0/default": "00000000000000aa"} if oracle is None \
        else oracle
    outputs = {"512x512#0/default": {"00000000000000aa": 3}} \
        if outputs is None else outputs
    return {"oracle": oracle, "outputs": outputs, "errors": list(errors),
            "main": {"gen_lag_ms": list(lags)}}


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertTrue(stats.supports(1000, 99))
        self.assertFalse(stats.supports(999, 99))
        self.assertTrue(stats.supports(500, 98))
        self.assertFalse(stats.supports(499, 98))
        self.assertTrue(stats.supports(200, 95))

    def test_p99_refused_under_1000_samples(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(range(999), 99)
        self.assertEqual(stats.percentile(range(1, 1001), 99), 990)

    def test_nearest_rank(self):
        self.assertEqual(stats.percentile(range(1, 101), 50), 50)
        self.assertEqual(stats.percentile(list(range(1, 101))[::-1], 90), 90)


class FailedRequests(unittest.TestCase):
    def test_failed_is_infinite_latency(self):
        samples = [1.0] * 480 + [None] * 20
        self.assertEqual(stats.percentile(samples, 50), 1.0)
        self.assertEqual(stats.percentile(samples, 98), math.inf)

    def test_failed_misses_the_slo(self):
        self.assertAlmostEqual(
            stats.share_within([10.0, 300.0, None, 20.0], 250.0), 0.5)


class TrialSummaries(unittest.TestCase):
    def test_median_and_quartile_spread(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 12.0, 8.0, 10.0, 10.0]
        self.assertEqual(stats.median(values), 10.0)
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual((q1, q2, q3), (9.375, 10.0, 10.625))
        self.assertAlmostEqual(stats.spread(values), 0.125)

    def test_median_of_trials_ignores_a_slow_minority(self):
        # Four of ten trials slowed by a disturbed core: the mean moves by
        # a quarter, the median not at all.
        rates = [20.0] * 6 + [12.0] * 4
        self.assertEqual(stats.median(rates), 20.0)
        self.assertAlmostEqual(sum(rates) / len(rates), 16.8)


class GeneratorLag(unittest.TestCase):
    def test_on_time_generator_is_valid(self):
        self.assertEqual(stats.gen_lag_check([0.1] * 800), (0.1, False))

    def test_scattered_stalls_are_tolerated(self):
        lags = [0.1] * 700 + [5.0] * 100
        self.assertEqual(stats.gen_lag_check(lags), (0.1, False))
        self.assertEqual(stats.verdict(raw_run(lags=lags)), stats.EXIT_OK)

    def test_late_generator_invalidates_the_run(self):
        lags = [0.1] * 300 + [5.0] * 500
        self.assertEqual(stats.gen_lag_check(lags), (5.0, True))
        self.assertEqual(stats.verdict(raw_run(lags=lags)),
                         stats.EXIT_INVALID)
        traced = raw_run()
        traced["traced"] = {"gen_lag_ms": lags}
        self.assertEqual(stats.verdict(traced), stats.EXIT_INVALID)

    def test_closed_loops_have_no_generator(self):
        self.assertEqual(stats.gen_lag_check([]), (0.0, False))


class Bounds(unittest.TestCase):
    def test_relative_bound_respects_direction(self):
        change, worse = stats.worsening("lower", 100.0, 112.0, 0.10)
        self.assertAlmostEqual(change, 0.12)
        self.assertTrue(worse)
        change, worse = stats.worsening("higher", 100.0, 112.0, 0.10)
        self.assertAlmostEqual(change, -0.12)
        self.assertFalse(worse)
        self.assertFalse(stats.worsening("higher", 100.0, 95.0, 0.10)[1])

    def test_absolute_bounds(self):
        # failed requests: +0 allowed
        self.assertEqual(stats.worsening("lower", 0, 0, 0, "abs"),
                         (0, False))
        self.assertTrue(stats.worsening("lower", 0, 1, 0, "abs")[1])
        # an SLO share may drop by 0.01 absolute
        self.assertFalse(
            stats.worsening("higher", 0.99, 0.985, 0.01, "abs")[1])
        self.assertTrue(stats.worsening("higher", 0.99, 0.97, 0.01, "abs")[1])


class OracleGate(unittest.TestCase):
    def test_matching_digests_pass(self):
        self.assertEqual(stats.verdict(raw_run()), stats.EXIT_OK)

    def test_fabricated_digest_fails_the_run(self):
        outputs = {"512x512#0/default": {"00000000000000aa": 2,
                                         "00000000000000ab": 1}}
        raw = raw_run(outputs=outputs)
        self.assertEqual(stats.oracle_mismatches(raw["oracle"], outputs),
                         ["512x512#0/default"])
        self.assertEqual(stats.verdict(raw), stats.EXIT_WRONG_OUTPUT)

    def test_output_without_oracle_fails_the_run(self):
        raw = raw_run(outputs={"256x256#1/strong": {"00000000000000aa": 1}})
        self.assertEqual(stats.verdict(raw), stats.EXIT_WRONG_OUTPUT)

    def test_unexpected_error_fails_the_run(self):
        self.assertEqual(stats.verdict(raw_run(errors=["request: boom"])),
                         stats.EXIT_FAILURE)


class Histograms(unittest.TestCase):
    TEXT = "\n".join([
        "# TYPE q_us histogram",
        'q_us_bucket{le="1"} 0',
        'q_us_bucket{le="2"} 600',
        'q_us_bucket{le="4"} 990',
        'q_us_bucket{le="+Inf"} 1000',
        "q_us_sum 2500.5",
        "q_us_count 1000",
        "# TYPE c_total counter",
        "c_total 7",
    ])

    def test_parse_and_interpolate(self):
        fam = stats.parse_histograms(self.TEXT)
        q = fam["q_us"]
        self.assertEqual(q["count"], 1000)
        self.assertEqual(q["sum"], 2500.5)
        self.assertEqual(fam["_plain"]["c_total"], 7)
        self.assertAlmostEqual(stats.histogram_percentile(q, 50), 1.0 + 500 / 600)
        self.assertAlmostEqual(stats.histogram_percentile(q, 98),
                               2.0 + 2.0 * 380 / 390)
        self.assertEqual(stats.histogram_percentile(q, 99), 2.0 + 2.0)

    def test_overflow_bucket_reports_its_lower_bound(self):
        fam = stats.parse_histograms(self.TEXT.replace('"4"} 990', '"4"} 900'))
        self.assertEqual(stats.histogram_percentile(fam["q_us"], 99), 4.0)


if __name__ == "__main__":
    unittest.main()
