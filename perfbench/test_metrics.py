"""Unit tests of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import statistics
import unittest
from pathlib import Path

import metrics

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent}


def raw_run(**overrides):
    """A runner record of a small traced run that calls every layer."""
    raw = {
        "workload": "bcast-100k-d18", "seed": 1, "nodes": 10, "ticks": 4,
        "broadcasts": 2, "setup_s": [0.3, 0.1, 0.2],
        "tick_ms": [4.0, 1.0, 3.0, 2.0], "traced_tick_ms": [2.2, 4.4],
        "tick_counts": {"net.rounds": 8, "proto.msgs": 80},
        "bcast_counts": {"core.sd.forward_nodes": 6, "reached": 36,
                         "component_nodes": 40},
        "phase_ms": {"proto.deliver_ms": 1.0, "proto.mirror_ms": 0.5},
        "rss_bytes": 5000, "probe_ms": [40.0, 50.0],
    }
    raw.update(overrides)
    return raw


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        self.assertEqual(metrics.percentile([3, 1, 2, 4], 50), 2.5)
        self.assertAlmostEqual(metrics.percentile(range(1, 11), 90), 9.1)
        self.assertEqual(metrics.percentile([7], 90), 7)

    def test_ends_are_min_and_max(self):
        values = [5.0, -1.0, 9.5, 2.0]
        self.assertEqual(metrics.percentile(values, 0), -1.0)
        self.assertEqual(metrics.percentile(values, 100), 9.5)

    def test_rejects_empty_input_and_bad_rank(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)
        with self.assertRaises(ValueError):
            metrics.percentile([1.0], 101)

    def test_median_agrees_with_statistics(self):
        values = [0.3, 9.1, 4.4, 2.5, 7.0, 1.2, 8.8]
        self.assertEqual(metrics.percentile(values, 50),
                         statistics.median(values))

    def test_spread_is_interquartile_range_over_median(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(metrics.spread(values), (q3 - q1) / q2)
        self.assertEqual(metrics.spread([5.0] * 10), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        spans = [
            span("tick", 0, 100),
            span("incr.commit", 10, 30, parent=0),
            span("incr.repair", 30, 90, parent=0),
            span("core.sd", 40, 50, parent=2),
        ]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs["tick"], (20, 1))
        self.assertEqual(selfs["incr.commit"], (20, 1))
        self.assertEqual(selfs["incr.repair"], (50, 1))
        self.assertEqual(selfs["core.sd"], (10, 1))

    def test_repeated_names_sum_time_and_count_calls(self):
        spans = [span("incr.commit", 0, 5), span("incr.commit", 10, 17)]
        self.assertEqual(metrics.self_times(spans)["incr.commit"], (12, 2))

    def test_durations_in_ms(self):
        spans = [span("core.sd", 0, 2_000_000), span("tick", 0, 9),
                 span("core.sd", 5, 1_000_005)]
        self.assertEqual(metrics.durations_ms(spans, "core.sd"), [2.0, 1.0])

    def test_per_layer_mean_self_time_in_ms(self):
        spans = [
            span("tick", 0, 9_000_000),
            span("incr.freeze", 0, 3_000_000, parent=0),
            span("tick", 10_000_000, 12_000_000),
            span("incr.freeze", 10_000_000, 11_000_000, parent=2),
        ]
        out = metrics.per_layer(raw_run(), spans)
        self.assertAlmostEqual(out["incr.freeze_ms"], 2.0)
        self.assertEqual(out["incr.commit_ms"], 0.0)


class MetricMappingTest(unittest.TestCase):
    def test_end_to_end_reports_every_metric_of_the_spec(self):
        out = metrics.end_to_end(raw_run())
        self.assertEqual(set(out), {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual(out["rss_b_per_node"], 500.0)

    def test_end_to_end_times_are_scaled_to_the_reference_probe(self):
        at_ref = metrics.end_to_end(raw_run(probe_ms=[49.0, 51.0]))
        self.assertAlmostEqual(at_ref["setup_s"], 0.2)
        self.assertAlmostEqual(at_ref["tick_norm_ms_p25"], 1.75)
        self.assertAlmostEqual(at_ref["tick_norm_ms_mean"], 2.5)
        slow = metrics.end_to_end(raw_run(probe_ms=[100.0, 100.0]))
        self.assertAlmostEqual(slow["setup_s"], 0.1)
        self.assertAlmostEqual(slow["tick_norm_ms_p25"], 0.875)
        self.assertAlmostEqual(slow["tick_norm_ms_mean"], 1.25)
        self.assertEqual(slow["rss_b_per_node"], at_ref["rss_b_per_node"])

    def test_measured_times_are_not_scaled(self):
        out = metrics.measured(raw_run(probe_ms=[100.0, 100.0]))
        self.assertEqual(out["setup_s"], 0.2)
        self.assertEqual(out["tick_ms_p50"], 2.5)
        self.assertAlmostEqual(out["tick_ms_p90"], 3.7)
        self.assertEqual(out["host_scale"], 0.5)

    def test_per_layer_reports_every_metric_of_the_spec(self):
        out = metrics.per_layer(raw_run(), [])
        self.assertEqual(set(out), {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(out["net.rounds"], 2.0)
        self.assertEqual(out["msgs_per_node_tick"], 2.0)
        self.assertEqual(out["sd_fwd_per_bcast"], 3.0)
        self.assertEqual(out["delivery_ratio"], 0.9)
        self.assertEqual(out["proto.deliver_ms"], 0.5)
        self.assertEqual(out["host.probe_ms"], 45.0)
        self.assertAlmostEqual(out["trace.overhead_ratio"], 3.3 / 2.5)
        self.assertEqual(out["tick_ms_p50"], 2.5)
        self.assertEqual(out["proto.other_ms"], 0.0)

    def test_a_layer_the_workload_skips_reads_zero(self):
        out = metrics.per_layer(
            raw_run(broadcasts=0, bcast_counts={}, tick_counts={}), [])
        self.assertEqual(out["delivery_ratio"], 0.0)
        self.assertEqual(out["sd_bcast_ms_p50"], 0.0)
        self.assertEqual(out["msgs_per_node_tick"], 0.0)

    def test_every_layer_metric_names_its_target(self):
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        workloads = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(set(metrics.LAYER_TARGETS),
                         {m["name"] for m in SPEC["per_layer"]})
        for name, (target, on, _) in metrics.LAYER_TARGETS.items():
            if target.endswith("*"):
                self.assertTrue(any(e.startswith(target[:-1])
                                    for e in end_to_end), name)
            elif target in end_to_end:
                self.assertTrue(set(on.split(", ")) <= workloads, name)

    def test_drift_lists_only_differing_shared_keys(self):
        a = {"state_hash": "ab", "ticks": 3, "tick_counts": {"x": 1}}
        b = {"state_hash": "ac", "ticks": 3, "tick_counts": {"x": 1},
             "extra": 0}
        self.assertEqual(metrics.drift(a, b), ["state_hash"])
        self.assertEqual(metrics.drift(a, dict(a)), [])


class NamePatternTest(unittest.TestCase):
    def test_accepts_and_rejects(self):
        for good in ("setup_s", "proto.msgs.hello", "bcast-100k-d18", "9a"):
            self.assertTrue(metrics.valid_name(good), good)
        for bad in ("", "_lead", ".x", "has space", "a/b", "x" * 65,
                    "tick_ms*"):
            self.assertFalse(metrics.valid_name(bad), bad)

    def test_spec_names_are_valid_and_unique(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertTrue(all(metrics.valid_name(n) for n in names))
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]),
                         metrics.WORKLOADS)

    def test_spec_units_and_bounds(self):
        unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertIsNotNone(unit.fullmatch(m["unit"]), m["name"])
            self.assertIn(m["better"], ("lower", "higher"))
        for m in SPEC["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in SPEC["end_to_end"])},
                      SPEC["end_to_end"])


if __name__ == "__main__":
    unittest.main()
