"""Unit tests for the benchmark's arithmetic and its metric declarations.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(values, 0.5), 50)
        self.assertEqual(stats.nearest_rank(values, 0.99), 99)
        self.assertEqual(stats.nearest_rank(values, 1.0), 100)
        self.assertEqual(stats.nearest_rank([7], 0.99), 7)

    def test_nearest_rank_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1, 2], 0)

    def test_summary_reports_count_and_samples_beyond_p99(self):
        samples = [float(v) for v in range(1500, 0, -1)]  # unsorted input
        s = stats.timing_summary(samples)
        self.assertEqual(s.n, 1500)
        self.assertEqual(s.p50, 750.0)
        self.assertEqual(s.p99, 1485.0)
        self.assertEqual(s.beyond_p99, 15)

    def test_summary_refuses_a_p99_with_too_few_samples_beyond(self):
        # 999 samples leave 9 beyond the p99 rank; 1000 leave exactly 10.
        with self.assertRaises(ValueError):
            stats.timing_summary(range(999))
        self.assertEqual(stats.timing_summary(range(1000)).beyond_p99, 10)


class RatioTest(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        r = stats.ratio(3, 12)
        self.assertEqual((r.value, r.num, r.base), (0.25, 3, 12))

    def test_empty_base_gives_zero_with_base_zero(self):
        r = stats.ratio(0, 0)
        self.assertEqual((r.value, r.base), (0.0, 0))


def cell(cid, pair=None, role=None, goodput=0.0):
    tags = {} if pair is None else {"pair": pair, "role": role}
    return {"id": cid, "tags": tags, "metrics": {"conns_per_sec": goodput}}


class TwinPairingTest(unittest.TestCase):
    def test_pairs_by_tag_in_name_order(self):
        cells = [cell("b/attack", "b", "attack", 50), cell("lone"),
                 cell("a/twin", "a", "twin", 100), cell("a/attack", "a", "attack", 90),
                 cell("b/twin", "b", "twin", 200)]
        pairs = stats.pair_twins(cells)
        self.assertEqual([(p, a["id"], t["id"]) for p, a, t in pairs],
                         [("a", "a/attack", "a/twin"), ("b", "b/attack", "b/twin")])

    def test_missing_twin_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.pair_twins([cell("a/attack", "a", "attack")])

    def test_duplicate_role_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.pair_twins([cell("x", "a", "attack"), cell("y", "a", "attack"),
                              cell("z", "a", "twin")])

    def test_unknown_role_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.pair_twins([cell("x", "a", "victim")])

    def test_slowdown_is_relative_to_the_twin(self):
        self.assertAlmostEqual(stats.slowdown_pct(90.0, 100.0), 10.0)
        self.assertAlmostEqual(stats.slowdown_pct(110.0, 100.0), -10.0)
        with self.assertRaises(ValueError):
            stats.slowdown_pct(1.0, 0.0)


def span(name, start, end, parent=-1, ops=0):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "ops": ops}


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span("root", 0, 100), span("a", 10, 30, 0), span("b", 40, 90, 0),
                 span("a.op", 12, 20, 1, ops=4)]
        self.assertEqual(stats.self_times(spans), [30, 12, 50, 8])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span("root", 0, 100), span("x", 10, 50, 0), span("y", 30, 60, 0),
                 span("z", 90, 120, 0)]
        # Children cover [10, 60) and [90, 100) of the root: 60 ns.
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_self_time_by_name_aggregates(self):
        spans = [span("root", 0, 100), span("op", 0, 10, 0, 2), span("op", 20, 40, 0, 2)]
        self.assertEqual(stats.self_time_by_name(spans),
                         {"root": [1, 100, 70], "op": [2, 30, 30]})

    def test_per_op_divides_by_batch_size_and_skips_empty_batches(self):
        spans = [span("op", 0, 100, ops=4), span("op", 0, 50, ops=0), span("other", 0, 9, ops=1)]
        self.assertEqual(stats.per_op_ns(spans, "op"), [25.0])


class DigestTest(unittest.TestCase):
    def test_digest_ignores_host_blocks_but_not_simulated_ones(self):
        a = {"id": "c", "metrics": {"x": 1}, "ledger": {}, "perf": {"wall_ms": 1.0}}
        b = dict(a, perf={"wall_ms": 2.0}, memory={"timers_armed": 3})
        self.assertEqual(stats.cell_digest(a), stats.cell_digest(b))
        c = dict(a, metrics={"x": 2})
        self.assertNotEqual(stats.cell_digest(a), stats.cell_digest(c))

    def test_dig_reports_missing_keys_as_none(self):
        record = {"perf": {"wall_ms": 3}}
        self.assertEqual(stats.dig(record, "perf.wall_ms"), 3)
        self.assertIsNone(stats.dig(record, "perf.events"))
        self.assertIsNone(stats.dig(record, "memory.bytes_per_client"))


class DeclarationTest(unittest.TestCase):
    """BENCHMARK.json and perfbench/metrics.json must describe the same
    metrics with the same units and directions."""

    def setUp(self):
        self.meta = json.loads((HERE / "metrics.json").read_text())
        self.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_every_benchmark_metric_is_described_alike(self):
        for section in ("end_to_end", "per_layer"):
            for m in self.bench[section]:
                info = self.meta[section][m["name"]]
                self.assertEqual((info["unit"], info["better"]), (m["unit"], m["better"]),
                                 m["name"])

    def test_bounded_end_to_end_metrics_are_exactly_those_marked(self):
        marked = {k for k, v in self.meta["end_to_end"].items() if v["in_benchmark_json"]}
        self.assertEqual(marked, {m["name"] for m in self.bench["end_to_end"]})

    def test_every_per_layer_metric_is_in_the_benchmark(self):
        self.assertEqual(set(self.meta["per_layer"]), {m["name"] for m in self.bench["per_layer"]})

    def test_workloads_match(self):
        self.assertEqual(set(self.meta["workloads"]), {w["name"] for w in self.bench["workloads"]})


if __name__ == "__main__":
    unittest.main()
