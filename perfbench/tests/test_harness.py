"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir))

import harness  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(harness.percentile(values, 50), 50)
        self.assertEqual(harness.percentile(values, 90), 90)
        self.assertEqual(harness.percentile([7.0], 90), 7.0)
        self.assertEqual(harness.percentile([3, 1, 2], 50), 2)

    def test_samples_beyond(self):
        self.assertEqual(harness.samples_beyond(100, 90), 10)
        self.assertEqual(harness.samples_beyond(99, 90), 9)
        self.assertEqual(harness.samples_beyond(20, 50), 10)

    def test_reportable_percentile_needs_ten_beyond(self):
        self.assertIsNone(harness.reportable_percentile(19))
        self.assertEqual(harness.reportable_percentile(20), 50)
        self.assertEqual(harness.reportable_percentile(99), 75)
        self.assertEqual(harness.reportable_percentile(100), 90)
        self.assertEqual(harness.reportable_percentile(200), 95)
        self.assertEqual(harness.reportable_percentile(1000), 99)
        self.assertEqual(harness.reportable_percentile(10000), 99.9)


class ParetoChecker(unittest.TestCase):
    def test_accepts_a_rising_front(self):
        self.assertEqual(harness.pareto_problems(
            [(1.0, 0.0), (1.5, 100.0), (2.0, 250.0)]), [])

    def test_rejects_a_front_not_starting_at_software(self):
        self.assertTrue(harness.pareto_problems([(1.2, 10.0), (1.5, 20.0)]))

    def test_rejects_a_dominated_point(self):
        # (1.4, 300) costs more area than (1.5, 200) for less speedup.
        bad = [(1.0, 0.0), (1.5, 200.0), (1.4, 300.0)]
        self.assertEqual(len(harness.pareto_problems(bad)), 1)

    def test_rejects_equal_area_and_empty(self):
        self.assertTrue(harness.pareto_problems(
            [(1.0, 0.0), (1.5, 100.0), (1.7, 100.0)]))
        self.assertTrue(harness.pareto_problems([]))

    def test_reads_the_front_of_a_result_document(self):
        doc = ('{\n  "stats": {\n    "phases": 2,\n    "seconds": 0.25\n  },\n'
               '  "front": [{"speedup": 1, "areaUm2": 0},'
               ' {"speedup": 1.5, "areaUm2": 80}]\n}')
        self.assertEqual(harness.front_of(doc), [(1, 0), (1.5, 80)])
        self.assertEqual(harness.best_speedup(doc), 1.5)
        self.assertTrue(harness.same_result(
            doc, doc.replace("0.25", "0.75")))
        self.assertFalse(harness.same_result(doc, doc.replace("80", "81")))


class ScheduleDeterminism(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        self.assertEqual(harness.serve_schedule(7, 10.0),
                         harness.serve_schedule(7, 10.0))
        self.assertEqual(
            harness.kernel_orders(7, harness.SMALL_KERNELS, 5),
            harness.kernel_orders(7, harness.SMALL_KERNELS, 5))

    def test_other_seed_other_schedule(self):
        self.assertNotEqual(harness.serve_schedule(7, 10.0),
                            harness.serve_schedule(8, 10.0))
        self.assertNotEqual(
            harness.kernel_orders(7, harness.SMALL_KERNELS, 5),
            harness.kernel_orders(8, harness.SMALL_KERNELS, 5))

    def test_schedule_shape(self):
        schedule = harness.serve_schedule(3, 100.0)
        dues = [r.due_s for r in schedule]
        self.assertEqual(dues, sorted(dues))
        self.assertTrue(all(0 < d < 100.0 for d in dues))
        # 800 expected arrivals; a Poisson count stays well within 12%.
        self.assertLess(abs(len(schedule) - 800), 100)
        for start in range(0, len(schedule) - 3, harness.UNCACHED_EVERY):
            block = schedule[start:start + harness.UNCACHED_EVERY]
            self.assertEqual(sum(not r.cached for r in block), 1)
        for cached in (True, False):
            counts = {}
            for r in schedule:
                if r.cached == cached:
                    counts[r.kernel] = counts.get(r.kernel, 0) + 1
            self.assertEqual(set(counts), set(harness.SMALL_KERNELS))
            self.assertLessEqual(max(counts.values()) - min(counts.values()),
                                 1)
        for order in harness.kernel_orders(3, harness.AU_KERNELS, 4):
            self.assertEqual(sorted(order), sorted(harness.AU_KERNELS))


if __name__ == "__main__":
    unittest.main()
