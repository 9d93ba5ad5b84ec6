"""Tests of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 perfbench/test_stats.py
"""

import json
import math
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([("a", -1, 1.0, 3.0)]), {"a": [2.0]})

    def test_children_are_subtracted_from_the_parent_only(self):
        spans = [
            ("rep", -1, 0.0, 10.0),
            ("factor", 0, 1.0, 4.0),
            ("solve", 0, 5.0, 9.0),
            ("apply", 2, 6.0, 7.0),
        ]
        got = stats.self_times(spans)
        self.assertEqual(got["rep"], [3.0])     # 10 - 3 - 4
        self.assertEqual(got["factor"], [3.0])
        self.assertEqual(got["solve"], [3.0])   # grandchildren are the child's business
        self.assertEqual(got["apply"], [1.0])

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [
            ("p", -1, 0.0, 10.0),
            ("c", 0, 2.0, 6.0),
            ("c", 0, 4.0, 8.0),    # overlaps the first child
            ("c", 0, 9.0, 12.0),   # runs past the parent's end
        ]
        self.assertEqual(stats.self_times(spans)["p"], [3.0])  # 10 - (6 + 1)

    def test_one_entry_per_call(self):
        spans = [("x", -1, 0.0, 1.0), ("x", -1, 2.0, 4.0)]
        self.assertEqual(stats.self_times(spans)["x"], [1.0, 2.0])

    def test_top_level_seconds(self):
        spans = [("a", -1, 0.0, 2.0), ("b", 0, 0.5, 1.0), ("c", -1, 3.0, 3.5)]
        self.assertEqual(stats.top_level_seconds(spans), 2.5)


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.tail_percentile(values, 0.99), 990)
        self.assertIsNone(stats.tail_percentile(values[:999], 0.99))

    def test_median_of_small_samples(self):
        self.assertEqual(stats.tail_percentile(list(range(1, 21)), 0.5), 10)
        self.assertIsNone(stats.tail_percentile(list(range(1, 20)), 0.5))

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(1000, 0, -1)]
        self.assertEqual(stats.tail_percentile(values, 0.99), 990.0)

    def test_a_failed_request_lands_in_the_tail(self):
        latencies = run.latencies([0.01] * 995 + [None] * 5)
        self.assertEqual(stats.tail_percentile(latencies, 0.5), 0.01)
        self.assertEqual(stats.tail_percentile(latencies, 0.99), 0.01)
        latencies = run.latencies([0.01] * 980 + [None] * 20)
        self.assertTrue(math.isinf(stats.tail_percentile(latencies, 0.99)))

    def test_quartile_spread(self):
        self.assertAlmostEqual(stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)


class ErrorRate(unittest.TestCase):
    def test_rate(self):
        self.assertEqual(stats.error_rate(10, 0), 0.0)
        self.assertEqual(stats.error_rate(8, 2), 0.25)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.error_rate(0, 0)

    def test_more_failures_than_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.error_rate(3, 4)

    def test_failures_are_reported_and_make_the_run_incorrect(self):
        raw = {"attempted": 4, "failed": 1, "samples": {"bench.traced_wall_s": [1.0]},
               "spans": [["a", -1, 0.0, 1.0]]}
        spec = {"per_layer": [{"name": "error_rate", "unit": "ratio"}]}
        metrics, problems = run.metrics_of(raw, spec, trace=True)
        self.assertEqual(metrics["error_rate"]["value"], 0.25)
        self.assertEqual(problems, [])
        line = run.result(raw, metrics, problems)
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (False, 4, 1))
        raw["failed"] = 0
        self.assertTrue(run.result(raw, metrics, problems)["correct"])


class Metrics(unittest.TestCase):
    def test_missing_end_to_end_metric_is_a_problem(self):
        raw = {"attempted": 1, "failed": 0, "samples": {"setup_s": [0.5]}, "spans": []}
        spec = {"end_to_end": [{"name": "setup_s", "unit": "s"}, {"name": "factor_s", "unit": "s"}]}
        metrics, problems = run.metrics_of(raw, spec, trace=False)
        self.assertEqual(metrics["setup_s"]["value"], 0.5)
        self.assertEqual(len(problems), 1)

    def test_per_layer_prefers_samples_then_self_times_then_zero(self):
        samples = {"serve.batch_size_mean": [1, 2, 6], "part.edge_cut": [5, 7, 9]}
        self_s = {"dist.spmv": [0.1, 0.3, 0.2]}
        self.assertEqual(run.per_layer_value("serve.batch_size_mean", samples, self_s), 3)
        self.assertEqual(run.per_layer_value("part.edge_cut", samples, self_s), 7)
        self.assertEqual(run.per_layer_value("dist.spmv_s", samples, self_s), 0.2)
        self.assertEqual(run.per_layer_value("pilut.factor_s", samples, self_s), 0.0)

    def test_uncovered_traced_time_is_a_problem(self):
        raw = {"attempted": 1, "failed": 0, "samples": {"bench.traced_wall_s": [2.0]},
               "spans": [["a", -1, 0.0, 1.0]]}
        spec = {"per_layer": [{"name": "trace.coverage", "unit": "ratio"}]}
        metrics, problems = run.metrics_of(raw, spec, trace=True)
        self.assertEqual(metrics["trace.coverage"]["value"], 0.5)
        self.assertEqual(len(problems), 1)


class BenchmarkJson(unittest.TestCase):
    """The shape BENCHMARK.json must keep."""

    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def setUp(self):
        self.spec = json.loads(SPEC.read_text())

    def test_keys_and_sizes(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        self.assertTrue(1 <= s["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        s = self.spec
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], self.UNIT)
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], self.UNIT)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
