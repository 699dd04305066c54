"""Tests of the benchmark's own logic (schedule, percentile rule, span
attribution). Run from the repository root:

    python3 -m unittest discover -s e2ebench/tests
"""

import math
import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import ledger  # noqa: E402


def span(start, end, parent=-1, name="s"):
    return {"name": name, "id": "x", "start_ns": start, "end_ns": end, "parent": parent}


class ScheduleTest(unittest.TestCase):
    RATES = [20.0, 40.0]

    def schedule(self, seed, cycles=2, size=100):
        return ledger.build_schedule(seed, self.RATES, cycles, size, 0.85)

    def test_same_seed_same_schedule(self):
        self.assertEqual(self.schedule(7), self.schedule(7))
        self.assertNotEqual(self.schedule(7), self.schedule(8))

    def test_segments_hold_their_rates(self):
        size = 2000
        segments = self.schedule(3, cycles=2, size=size)
        self.assertEqual([s["rate"] for s in segments], self.RATES * 2)
        for seg in segments:
            times = [i["due"] for i in seg["items"]]
            self.assertEqual(len(times), size)
            self.assertEqual(times, sorted(times))
            self.assertTrue(all(0 <= t < size / seg["rate"] for t in times))
            # Gaps of a Poisson process: exponential, mean 1 / rate.
            gaps = [b - a for a, b in zip(times, times[1:])]
            mean = sum(gaps) / len(gaps)
            self.assertLess(abs(mean * seg["rate"] - 1), 4 / math.sqrt(len(gaps)))

    def test_segment_jobs_do_not_depend_on_the_seed(self):
        def jobs(seed):
            return [sorted(repr(sorted(i["req"].get("params", {}).items()))
                           for i in seg["items"]) for seg in self.schedule(seed)]
        self.assertEqual(jobs(1), jobs(2))

    def test_family_shares_and_base_jobs(self):
        items = [i for seg in self.schedule(5, cycles=3) for i in seg["items"]]
        n = len(items)
        inline = [i["req"]["type"] for i in items if i["kind"] == "inline"]
        self.assertEqual(set(inline), {"stats", "metrics"})
        self.assertAlmostEqual(sum(share for _, _, share, _, _ in ledger.FAMILIES), 1.0)
        for name, _, share, bases, _ in ledger.FAMILIES:
            got = [i for i in items if i["family"] == name]
            self.assertLessEqual(abs(len(got) - share * n), 1.0, name)
            for b in bases:
                self.assertIn(b, [i["req"]["params"] for i in got])

    def test_repeat_fraction(self):
        # Short enough that the DM family's parameter space holds the
        # distinct jobs it asks for; smaller families repeat more.
        items = [i for seg in self.schedule(2, size=200) for i in seg["items"]]
        dm = [i for i in items if i["family"] == "sim-dm"]
        self.assertAlmostEqual(ledger.repeat_share(dm), 0.85, delta=0.02)
        self.assertGreaterEqual(ledger.repeat_share(items), 0.84)


class TailTest(unittest.TestCase):
    def test_p99_of_a_thousand(self):
        values = list(range(1, 1001))
        random.Random(1).shuffle(values)
        value, pct, n = ledger.tail(values)
        self.assertEqual((value, pct, n), (990, 99.0, 1000))
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_highest_percentile_with_ten_beyond(self):
        for n in (11, 12, 57, 300):
            values = [float(i) for i in range(n)]
            value, pct, _ = ledger.tail(values)
            self.assertEqual(sum(1 for v in values if v > value), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_short_series_report_their_maximum(self):
        self.assertEqual(ledger.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(ledger.tail([]), (0.0, 0.0, 0))


class AttributionTest(unittest.TestCase):
    def test_self_time_with_overlapping_children(self):
        spans = [span(0, 100),
                 span(10, 40, parent=0), span(30, 60, parent=0),  # overlap 30..40
                 span(90, 120, parent=0),                         # sticks out
                 span(15, 20, parent=1)]                          # grandchild
        selfs = ledger.self_times(spans)
        # Children cover [10, 60) and [90, 100) inside the parent: 60 ns.
        self.assertEqual(selfs[0], 40)
        self.assertEqual(selfs[1], 25)
        self.assertEqual(selfs[2], 30)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[4], 5)

    def test_other_is_the_wall_no_top_level_span_covers(self):
        spans = [span(0, 10, name="a"), span(5, 20, name="b"), span(6, 8, parent=1)]
        by_name, other, coverage = ledger.attribution(spans, 0, 25)
        self.assertEqual(other, 5)
        self.assertAlmostEqual(coverage, 0.8)
        self.assertEqual(by_name["b"]["self_ns"], 13)

    def test_chrome_trace_events(self):
        trace = ledger.chrome_trace([("run", [span(1000, 3000), span(1500, 2000, 0)])])
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        self.assertEqual([(e["ts"], e["dur"], e["tid"]) for e in events],
                         [(1.0, 2.0, 1), (1.5, 0.5, 2)])


class KneeTest(unittest.TestCase):
    def test_interpolates_in_log_latency(self):
        self.assertAlmostEqual(ledger.knee([10, 20, 40], [50, 100, 400], 200), 30.0)

    def test_ends_of_the_grid(self):
        self.assertEqual(ledger.knee([10, 20], [5, 6], 100), 20)
        self.assertEqual(ledger.knee([10, 20], [500, 600], 100), 0.0)

    def test_refusals_miss_the_limit(self):
        self.assertEqual(ledger.knee([10, 20], [50, math.inf], 100), 10)


if __name__ == "__main__":
    unittest.main()
