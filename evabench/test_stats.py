"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s evabench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import evastats  # noqa: E402
import run  # noqa: E402


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        # 1000 samples: exactly 10 lie beyond p99.
        level, value = evastats.tail(list(range(1, 1001)))
        self.assertEqual(level, 99.0)
        self.assertEqual(value, 990)
        # 999 samples leave 9.99 beyond p99, so p98 is the highest.
        level, _ = evastats.tail(list(range(999)))
        self.assertEqual(level, 98.0)

    def test_small_samples_have_no_tail(self):
        self.assertEqual(evastats.tail([1.0] * 39), (None, None))
        self.assertEqual(evastats.tail([1.0] * 40)[0], 75.0)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(200)]
        self.assertEqual(evastats.tail(values),
                         evastats.tail(list(reversed(values))))
        self.assertEqual(evastats.tail(values), (95.0, 189.0))

    def test_median_and_spread(self):
        self.assertEqual(evastats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(evastats.median([]), 0.0)
        self.assertAlmostEqual(
            evastats.quartile_spread([10, 10, 10, 10, 10]), 0.0)


class DeltaMeanTest(unittest.TestCase):
    def test_exact_mean_between_snapshots(self):
        # 20 observations summing to 2.0 s arrived between the snapshots.
        self.assertAlmostEqual(evastats.delta_mean([10, 1.0], [30, 3.0]), 0.1)

    def test_no_new_observations(self):
        self.assertEqual(evastats.delta_mean([5, 0.5], [5, 0.5]), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_union_is_clipped_to_parent(self):
        spans = [
            [1, 0, 1, 0, "request", 0.0, 10.0],
            [2, 1, 1, 0, "ckks.encrypt", 1.0, 3.0],
            [3, 1, 1, 1, "runtime.execute", 2.0, 5.0],  # overlaps span 2
            [4, 1, 1, 0, "ckks.decrypt", 8.0, 12.0],    # runs past the end
            [5, 3, 1, 1, "ckks.op.add", 2.5, 3.0],
        ]
        selfs = evastats.self_times(spans)
        # Covered: [1, 5] and [8, 10] -> 6 of 10 s.
        self.assertAlmostEqual(selfs[1], 4.0)
        self.assertAlmostEqual(selfs[3], 2.5)
        self.assertAlmostEqual(selfs[5], 0.5)
        self.assertEqual(evastats.layer_of("ckks.op.add"), "ckks")

    def test_chrome_trace_events(self):
        doc = evastats.chrome_trace([[7, 0, 7, 2, "api.run", 1.0, 1.5]], "w")
        event = doc["traceEvents"][1]
        self.assertEqual((event["ph"], event["tid"]), ("X", 2))
        self.assertAlmostEqual(event["dur"], 5e5)


class PhaseTest(unittest.TestCase):
    @staticmethod
    def phase(waits, service=0.01, rate=100.0):
        rows = []
        for i, wait in enumerate(waits):
            due = i / rate
            rows.append([due, due, due + wait, due + wait + service,
                         0.002, 0.006, 0.002, 1])
        return {"name": "ladder", "rate": rate,
                "duration": len(waits) / rate, "samples": rows}

    def test_steady_phase_meets_the_limit(self):
        s = evastats.phase_summary(self.phase([0.001] * 300))
        self.assertFalse(s["backlog_grows"])
        self.assertTrue(evastats.meets_limit(s, 0.05))
        self.assertAlmostEqual(s["p50_s"], 0.011)

    def test_growing_backlog_fails_the_limit(self):
        s = evastats.phase_summary(self.phase([i * 0.001 for i in range(300)]))
        self.assertTrue(s["backlog_grows"])
        self.assertFalse(evastats.meets_limit(s, 10.0))
        self.assertEqual(evastats.max_ok_rate([s], 10.0), 0.0)

    def test_failed_request_misses_the_limit(self):
        p = self.phase([0.001] * 300)
        p["samples"][5][7] = 0
        self.assertFalse(evastats.meets_limit(evastats.phase_summary(p), 1.0))


class FingerprintTest(unittest.TestCase):
    BASE = {"cpu_model": "Xeon", "nproc": 4, "simd": "avx2",
            "compiler": "GNU-12.2.0", "build_type": "Release",
            "git_sha": "aaa"}

    def test_other_commit_same_host_is_comparable(self):
        evastats.check_comparable(self.BASE, dict(self.BASE, git_sha="bbb"))

    def test_other_host_is_refused(self):
        with self.assertRaises(evastats.FingerprintMismatch):
            evastats.check_comparable(self.BASE, dict(self.BASE, nproc=1))

    def test_compare_refuses_mixed_hosts(self):
        spec = {"end_to_end": [{"name": "p50_s", "unit": "s",
                                "better": "lower", "bound": 0.1}]}

        def record(fp, value):
            return {"workload": "w", "trace": 0, "fingerprint": fp,
                    "metrics": {"p50_s": {"value": value, "unit": "s"}}}

        base = [record(self.BASE, 1.0), record(self.BASE, 1.1)]
        other = dict(self.BASE, simd="scalar")
        with self.assertRaises(evastats.FingerprintMismatch):
            compare.compare(base, [record(other, 1.0)], spec)
        rows = compare.compare(base, [record(self.BASE, 1.3)], spec)
        self.assertTrue(rows[0][-1])  # 1.3 is worse than 1.05 by > 10%


class SpanMetricTest(unittest.TestCase):
    def test_names(self):
        self.assertEqual(run.span_metric("core.compile.sobel.eva"),
                         "core.compile_s.sobel.eva")
        self.assertEqual(run.span_metric("ckks.op.add"), "ckks.op.add_s")


if __name__ == "__main__":
    unittest.main()
