"""Unit tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402


def span(name, start, end, parent=-1, id=0):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "id": id}


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(metrics.percentile(xs, 50), 50)
        self.assertEqual(metrics.percentile(xs, 99), 99)
        self.assertEqual(metrics.percentile(xs, 100), 100)
        self.assertEqual(metrics.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_highest_percentile_with_ten_samples_beyond(self):
        # 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
        p, value, n = metrics.tail_percentile([float(i) for i in range(1000)])
        self.assertEqual((p, value, n), (99.0, 989.0, 1000))
        # 999 samples: p99 leaves 9 beyond, so p90 is the highest.
        self.assertEqual(metrics.tail_percentile(list(range(999)))[0], 90.0)
        # 10,000 samples: p99.9 leaves 10 beyond.
        self.assertEqual(metrics.tail_percentile(list(range(10_000)))[0], 99.9)
        # 20 samples: the median leaves 10 beyond; nothing higher qualifies.
        self.assertEqual(metrics.tail_percentile(list(range(20)))[:2], (50.0, 9))

    def test_too_few_samples_report_no_tail(self):
        self.assertIsNone(metrics.tail_percentile(list(range(19))))
        self.assertIsNone(metrics.tail_percentile([]))

    def test_sample_count_is_reported(self):
        self.assertEqual(metrics.tail_percentile([1.0] * 5000)[2], 5000)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_time([span("a", 10, 25)], 0), 15)

    def test_children_are_subtracted(self):
        spans = [span("root", 0, 100), span("a", 10, 30, 0), span("b", 50, 60, 0)]
        self.assertEqual(metrics.self_time(spans, 0), 70)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [span("root", 0, 100), span("a", 10, 50, 0), span("x", 20, 30, 1)]
        self.assertEqual(metrics.self_time(spans, 0), 60)
        self.assertEqual(metrics.self_time(spans, 1), 30)

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0, 100), span("a", 10, 40, 0), span("b", 30, 60, 0)]
        self.assertEqual(metrics.self_time(spans, 0), 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 10, 20), span("a", 5, 15, 0)]
        self.assertEqual(metrics.self_time(spans, 0), 5)

    def test_layer_metrics_use_the_tree(self):
        spans = [
            span("pass.cold", 0, 1000),
            span("cell", 0, 500, 0, 1),
            span("sched.run_cell", 0, 300, 1, 1),
            span("core.new", 300, 320, 1, 1),
            span("core.run", 320, 480, 1, 1),
            span("verify", 480, 500, 1, 1),
            span("search", 500, 1000, 0),
            span("search.eval", 600, 700, 6, 1),
        ]
        counters = {"core.cycles": 80, "model.cycles": 80}
        m = metrics.layer_metrics(spans, counters, 12.5, scheduler=True)
        self.assertEqual(m["sched.self_ms"], (300 - 20 - 160 - 20) / 1e6)
        self.assertEqual(metrics.layer_metrics(spans, counters, 12.5)["sched.self_ms"], 0.0)
        self.assertEqual(m["search.climb_ms"], 400 / 1e6)
        self.assertEqual(m["core.ns_per_cycle"], 2.0)
        self.assertEqual(m["trace.overhead_pct"], 12.5)
        self.assertEqual(m["ckpt.fork_ms"], 0.0)
        self.assertEqual(set(m), {name for name, _, _ in metrics.PER_LAYER})


class Names(unittest.TestCase):
    def test_valid(self):
        for name in ("wall_s", "core.ns_per_cycle", "grid-paper", "0x", "a" * 64):
            self.assertTrue(metrics.valid_name(name), name)

    def test_invalid(self):
        for name in ("", "_x", ".x", "-x", "a b", "p99%", "a/b", "é", "a" * 65, None, 3):
            self.assertFalse(metrics.valid_name(name), name)

    def test_every_declared_name_is_valid_and_unique(self):
        bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(metrics.valid_name(name), name)
        self.assertEqual([m["name"] for m in bench["per_layer"]],
                         [name for name, _, _ in metrics.PER_LAYER])


class FailRatio(unittest.TestCase):
    def test_counts_operations_and_checks(self):
        t = metrics.Tally()
        t.ops(990)
        t.ops(4000, 2, "two lookups returned the wrong record")
        self.assertTrue(t.check(True, "digest"))
        self.assertFalse(t.check(False, "rerun bytes differ"))
        self.assertEqual((t.attempted, t.failed), (4992, 3))
        self.assertAlmostEqual(t.fail_ratio(), 3 / 4992)
        self.assertEqual(t.problems, ["two lookups returned the wrong record", "rerun bytes differ"])

    def test_clean_run_is_zero(self):
        t = metrics.Tally()
        t.ops(318)
        t.check(True, "markdown")
        self.assertEqual(t.fail_ratio(), 0.0)

    def test_nothing_attempted_is_a_total_failure(self):
        self.assertEqual(metrics.Tally().fail_ratio(), 1.0)

    def test_impossible_tallies_are_refused(self):
        t = metrics.Tally()
        with self.assertRaises(ValueError):
            t.ops(1, 2)
        with self.assertRaises(ValueError):
            t.ops(-1)


if __name__ == "__main__":
    unittest.main()
