#!/usr/bin/env python3
"""Tests of the benchmark's statistics helpers, its metric derivation and
the shape of BENCHMARK.json.  Run from anywhere:

    python3 perfbench/test_perfbench.py
"""

import json
import re
import statistics
import unittest
from pathlib import Path

import benchstats
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [0.9, 1.3, 1.1, 1.0, 1.7, 1.2, 0.8, 1.05, 1.15, 1.4]
        self.assertEqual(benchstats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(benchstats.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_relative_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchstats.relative_spread(values),
                               (q3 - q1) / 3.0)
        self.assertEqual(benchstats.relative_spread([2.0, 2.0, 2.0]), 0.0)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchstats.percentile(values, 50), 50)
        self.assertEqual(benchstats.percentile(values, 90), 90)
        self.assertEqual(benchstats.percentile(values, 100), 100)
        self.assertEqual(benchstats.percentile([7.0], 99), 7.0)

    def test_rejects_out_of_range(self):
        with self.assertRaises(ValueError):
            benchstats.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            benchstats.percentile([1.0], 101)

    def test_highest_percentile_with_ten_samples_beyond(self):
        def top(n):
            result = benchstats.top_percentile(list(range(n)))
            return None if result is None else result[0]

        self.assertIsNone(top(19))    # p50 would leave 9 beyond
        self.assertEqual(top(20), 50.0)
        self.assertEqual(top(99), 50.0)   # p90 would leave 9 beyond
        self.assertEqual(top(100), 90.0)
        self.assertEqual(top(1000), 99.0)
        self.assertEqual(top(10000), 99.9)

    def test_top_percentile_value_is_the_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(benchstats.top_percentile(values), (90.0, 90.0))


def traced_rep(layer, counts, **overrides):
    rep = {"layer": layer, "untraced_wall_s": 2.0, "wall_s": 2.1,
           "make_initial_s": 0.01, "start_s": 0.02, "chain_s": 1.5,
           "metrics_s": 0.3, "snapshot_s": 0.0, "sink_s": 0.0,
           "sample_ms": [5.0, 6.0], "serialize_ms": [], "write_ms": [],
           "sink_ms": [], "snapshot_bytes": 0, "sink_bytes": 0,
           "counts": counts}
    rep.update(overrides)
    return rep


class MetricDerivation(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]

    def test_engine_layer(self):
        counts = {"steps": 100, "movement_steps": 100, "accepted": 10,
                  "target_occupied": 60, "rejected_gap": 10,
                  "rejected_property": 10, "rejected_filter": 10}
        record = {"traced": [traced_rep(
            "core.engine", counts, snapshot_s=0.2, sink_s=0.05,
            serialize_ms=[1.0], write_ms=[2.0, 4.0], sink_ms=[0.1],
            snapshot_bytes=1000, sink_bytes=200)]}
        v = run.per_layer_values(record)
        self.assertAlmostEqual(v["chain.ns_per_step"], 1.5e7)
        self.assertAlmostEqual(v["core.engine.accept_ratio"], 0.1)
        self.assertAlmostEqual(v["core.engine.reject_occupied"], 0.6)
        self.assertEqual(v["system.snapshot.write_ms_p90"], 4.0)
        self.assertEqual(v["sim.sink.bytes"], 200)
        self.assertEqual(v["system.metrics.samples"], 2)
        self.assertAlmostEqual(v["sim.unattributed_s"], 2.1 - 2.08)
        self.assertAlmostEqual(v["trace.overhead_ratio"], 0.05)
        self.assertFalse(any(k.startswith(("core.sharded.", "amoebot."))
                             for k in v))

    def test_sharded_and_amoebot_layers(self):
        sharded = {"steps": 200, "movement_steps": 200, "accepted": 20,
                   "target_occupied": 0, "rejected_gap": 0,
                   "rejected_property": 0, "rejected_filter": 0,
                   "sweep_events": 50, "epoch_target": 64}
        v = run.per_layer_values(
            {"traced": [traced_rep("core.sharded", sharded)]})
        self.assertAlmostEqual(v["core.sharded.sweep_ratio"], 0.25)
        self.assertEqual(v["core.sharded.epoch_target"], 64)
        amoebot = {"steps": 400, "sweep_activations": 40, "epoch_target": 8}
        v = run.per_layer_values(
            {"traced": [traced_rep("amoebot", amoebot)]})
        self.assertAlmostEqual(v["amoebot.sweep_ratio"], 0.1)
        self.assertAlmostEqual(v["chain.ns_per_step"], 1.5e9 / 400)

    def test_only_layers_that_ran_are_reported(self):
        # No snapshot or sink calls: no snapshot or sink metric, and no
        # metric of another chain layer, rather than a 0.
        v = run.per_layer_values({"traced": [traced_rep(
            "amoebot", {"steps": 1, "sweep_activations": 0,
                        "epoch_target": 1})]})
        self.assertFalse(any(k.startswith(("system.snapshot.", "sim.sink.",
                                           "core.")) for k in v))

    def test_every_workload_measures_the_result_line_metrics(self):
        engine = {"steps": 1, "movement_steps": 1, "accepted": 1,
                  "target_occupied": 0, "rejected_gap": 0,
                  "rejected_property": 0, "rejected_filter": 0}
        sharded = dict(engine, sweep_events=0, epoch_target=1)
        amoebot = {"steps": 1, "sweep_activations": 0, "epoch_target": 1}
        for layer, counts in (("core.engine", engine),
                              ("core.sharded", sharded),
                              ("amoebot", amoebot)):
            v = run.per_layer_values({"traced": [traced_rep(layer, counts)]})
            self.assertLessEqual(set(self.names), set(v), layer)
            self.assertLessEqual(set(v), set(run.LAYER_UNITS), layer)

    def test_units_agree_with_benchmark_json(self):
        for m in self.spec["per_layer"]:
            self.assertEqual(run.LAYER_UNITS[m["name"]], m["unit"])

    def test_counts_come_from_the_first_repetition(self):
        first = {"steps": 100, "sweep_activations": 10, "epoch_target": 8}
        later = {"steps": 100, "sweep_activations": 90, "epoch_target": 8}
        record = {"traced": [traced_rep("amoebot", first),
                             traced_rep("amoebot", later)]}
        v = run.per_layer_values(record)
        self.assertAlmostEqual(v["amoebot.sweep_ratio"], 0.1)

    def test_end_to_end_values(self):
        record = {"reps": [{"wall_s": 2.0, "setup_s": 0.1, "steps": 1900,
                            "peak_rss_mb": 12.5},
                           {"wall_s": 3.0, "setup_s": 0.2, "steps": 2800,
                            "peak_rss_mb": 14.0},
                           {"wall_s": 4.0, "setup_s": 0.3, "steps": 3700,
                            "peak_rss_mb": 12.0}]}
        v = run.end_to_end_values(run.end_to_end_samples(record))
        self.assertEqual(sorted(v), sorted(
            m["name"] for m in self.spec["end_to_end"]))
        self.assertAlmostEqual(v["steps_per_s"], 1000.0)
        self.assertEqual(v["wall_s"], 3.0)
        self.assertEqual(v["setup_s"], 0.2)
        self.assertEqual(v["peak_rss_mb"], 12.5)

    def test_result_line_keys(self):
        line = json.loads(run.result_line(True, 3, 0, {
            "wall_s": {"value": 1.5, "unit": "s"}}))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})


class BenchmarkJsonShape(unittest.TestCase):
    path = ROOT / "BENCHMARK.json"
    spec = json.loads(path.read_text())

    def test_top_level_keys_and_size(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertLessEqual(self.path.stat().st_size, 64 * 1024)

    def test_command_and_paths(self):
        command = self.spec["command"]
        self.assertTrue(1 <= len(command) <= 32)
        for arg in command:
            self.assertIsInstance(arg, str)
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"))
            self.assertNotIn("..", arg.split("/"))
        paths = self.spec["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for path in paths:
            self.assertRegex(path, PATH)
            self.assertNotIn("..", path.split("/"))
            self.assertTrue((ROOT / path).is_dir())
        # Every repository file the command names lies under paths.
        for arg in command[1:]:
            if (ROOT / arg).exists():
                self.assertTrue(any(arg.startswith(p + "/") for p in paths))

    def test_run_budget(self):
        seconds = self.spec["run_seconds"]
        self.assertIsInstance(seconds, int)
        self.assertTrue(1 <= seconds <= 60)
        # 4 + 22 runs per workload, each its run time plus up to 6 s of
        # process starts, build check and the repetition that ends past
        # the run time (about 2 s measured), plus two builds of at most a
        # minute each.
        runs = 4 + 22 * len(self.spec["workloads"])
        self.assertLessEqual(runs * (seconds + 6) + 2 * 60, 3420)

    def test_workloads(self):
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        table = (HERE / "src" / "common.cpp").read_text()
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200)
            self.assertNotIn("\n", w["why"])
            self.assertIn(f'{{"{w["name"]}",', table)

    def test_metrics(self):
        end_to_end = self.spec["end_to_end"]
        per_layer = self.spec["per_layer"]
        self.assertTrue(1 <= len(end_to_end) <= 16)
        self.assertTrue(1 <= len(per_layer) <= 128)
        for m in end_to_end:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in per_layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [m["name"] for m in end_to_end + per_layer]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in end_to_end + per_layer:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_setup_has_the_largest_bound(self):
        by_name = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = by_name["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
