"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(stats.tail(values), (90, 90.0, 10))
        self.assertEqual(stats.tail(list(range(20))), (9, 50.0, 10))

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0]
        value, pct, beyond = stats.tail(values)
        self.assertEqual((value, beyond), (2.0, 10))
        self.assertAlmostEqual(pct, 100 * 2 / 12)

    def test_eleven_samples_give_the_minimum_with_ten_beyond(self):
        value, pct, beyond = stats.tail([3.0] + [10.0] * 10)
        self.assertEqual((value, beyond), (3.0, 10))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_too_few_samples_report_fewer_beyond(self):
        self.assertEqual(stats.tail([4.0, 2.0, 3.0]), (2.0, 100 / 3, 2))
        with self.assertRaises(ValueError):
            stats.tail([])


class SelfTimeTest(unittest.TestCase):
    # pass [0, 10] holds sim [1, 4] (which holds pfs [2, 3]) and core [5, 9].
    SPANS = [
        (-1, "bench", "pass", 0.0, 10.0),
        (0, "sim", "Engine::run", 1.0, 4.0),
        (1, "pfs", "scrub", 2.0, 3.0),
        (0, "core", "fig2", 5.0, 9.0),
    ]

    def test_nested_children_are_subtracted_once(self):
        by_layer, root_total, bad = stats.self_times(self.SPANS)
        self.assertEqual(by_layer, {"bench": 3.0, "sim": 2.0, "pfs": 1.0, "core": 4.0})
        self.assertEqual(root_total, 10.0)
        self.assertEqual(sum(by_layer.values()), root_total)
        self.assertEqual(bad, [])

    def test_same_layer_spans_accumulate(self):
        spans = self.SPANS + [(-1, "bench", "pass", 10.0, 12.0), (4, "sim", "Engine::run", 10.5, 11.0)]
        by_layer, root_total, _ = stats.self_times(spans)
        self.assertEqual(by_layer["sim"], 2.5)
        self.assertEqual(by_layer["bench"], 4.5)
        self.assertEqual(root_total, 12.0)

    def test_broken_nesting_is_reported(self):
        outside = [(-1, "bench", "pass", 0.0, 1.0), (0, "sim", "Engine::run", 0.5, 2.0)]
        self.assertTrue(stats.self_times(outside)[2])
        overlap = [(-1, "bench", "pass", 0.0, 4.0), (0, "sim", "a", 0.0, 2.0), (0, "pfs", "b", 1.0, 3.0)]
        self.assertIn("b: overlaps a sibling", stats.self_times(overlap)[2])

    def test_split_passes_rebases_parents(self):
        spans = self.SPANS + [(-1, "bench", "pass", 10.0, 12.0), (4, "sim", "Engine::run", 10.5, 11.0)]
        passes = stats.split_passes(spans)
        self.assertEqual(len(passes), 2)
        self.assertEqual(passes[1][1][0], 0)
        self.assertEqual(stats.span_sum(passes[1], "sim", {"Engine::run"}), 0.5)
        self.assertEqual(stats.span_sum(passes[0], "core", exclude={"fig2"}), 0.0)


class FailedShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.failed_share(200, 0), 0.0)
        self.assertEqual(stats.failed_share(200, 50), 0.25)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (10, 11), (10, -1)):
            with self.assertRaises(ValueError):
                stats.failed_share(attempted, failed)

    def test_reference_mismatch_fails_every_op_of_the_job(self):
        references = {"seeds": {"default": 7},
                      "fingerprints": {"w": {"7": {"run": "a", "other": "b", "fig": "c"}}}}
        doc = {"workload": "w", "fingerprints": {"7": {
            "run": ["a", 100, 2],     # matches; its two simulated failures count
            "other": ["x", 40, 0],    # differs: all 40 ops fail
            "fig": ["c", 0, 0],       # a rendered artifact counts as one op
        }}}
        attempted, failed, problems = stats.check_references(doc, references, [7])
        self.assertEqual((attempted, failed), (141, 42))
        self.assertEqual(len(problems), 1)

    def test_an_exception_never_matches(self):
        references = {"seeds": {"default": 7},
                      "fingerprints": {"w": {"7": {"run": "exception: boom"}}}}
        doc = {"workload": "w", "fingerprints": {"7": {"run": ["exception: boom", 0, 0]}}}
        self.assertEqual(stats.check_references(doc, references, [7])[1:], (1, [
            "seed 7 run: fingerprint differs from the reference"]))

    def test_missing_reference_or_job_is_a_problem(self):
        references = {"seeds": {"default": 7, "held_out": 8},
                      "fingerprints": {"w": {"7": {"run": "a"}}}}
        doc = {"workload": "w", "fingerprints": {"7": {}, "8": {"run": ["a", 5, 0]}}}
        attempted, failed, problems = stats.check_references(doc, references, [7, 8])
        self.assertEqual((attempted, failed), (1, 1))
        self.assertEqual(len(problems), 2)


    def test_reference_seeds_take_turns(self):
        references = {"seeds": {"default": 9, "held_out": 4}}
        self.assertEqual([stats.verify_seeds(references, s) for s in (0, 1, 2)], [[4], [9], [4]])


class AckedLossTest(unittest.TestCase):
    def test_reads_losses_at_every_seed(self):
        doc = {"fingerprints": {
            "5": {"a": ["exec=1 lost=0 journal=3/0", 9, 0], "b": ["exec=2 lost=1024 x", 9, 0]},
            "6": {"c": ["exec=3 lost=77", 9, 0], "fig": ["bytes=3 hash=1", 0, 0]}}}
        self.assertEqual(stats.acked_losses(doc), [("5", "b", 1024), ("6", "c", 77)])


class ParseResultTest(unittest.TestCase):
    GOOD = {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}

    def test_reads_the_last_line(self):
        out = "perfbench: workload=repro\n  setup_s 0.5 s\n" + json.dumps(self.GOOD) + "\n\n"
        self.assertEqual(stats.parse_result(out), self.GOOD)

    def test_rejects_bad_results(self):
        bad = [
            dict(self.GOOD, extra=1),
            dict(self.GOOD, attempted=0),
            dict(self.GOOD, attempted=True),
            dict(self.GOOD, failed=1.5),
            dict(self.GOOD, correct="yes"),
            dict(self.GOOD, metrics={"setup_s": {"value": "0.5", "unit": "s"}}),
        ]
        for result in bad:
            with self.assertRaises(ValueError, msg=result):
                stats.parse_result(json.dumps(result))
        with self.assertRaises(ValueError):
            stats.parse_result("")


def measure_doc():
    passes = [{"cpu_s": w, "total_s": w + 0.5, "io_ops": 1000, "probe_untraced_s": 0.1,
               "probe_traced_s": 0.3, "probe_bytes": 3000, "probe_ios": 100}
              for w in (1.0, 2.0, 3.0)]
    slices = [stats.SLICE_REF_S * f for f in (0.5, 1.0, 1.5)]
    return {"passes": passes, "setup_s": [0.2, 0.1, 0.3], "peak_rss_kb": 2048,
            "calibration_s": slices}


def trace_doc():
    doc = measure_doc()
    doc["traced_passes"] = [dict(p, total_s=p["total_s"] * 1.1) for p in doc["passes"]]
    doc["spans"] = SelfTimeTest.SPANS
    doc["traced_s"] = 10.0
    doc["ref_loop_s"] = [0.02, 0.01, 0.03]
    doc["ref_loop_events"] = 1000000
    doc["analytics_s"] = [0.01]
    doc["capture_arms"] = [[1.0, 1.1, 1.3, 2.0]]
    doc["counters"] = {k: 10 for k in (
        "sim_events", "run_events", "disk_ops", "disk_bytes", "net_messages", "net_dropped",
        "data_ops", "bytes_read", "bytes_written", "meta_requests", "cache_hits", "cache_misses",
        "retries", "timeouts", "replayed_ops", "journal_appends", "journal_redone", "acked_bytes_lost",
        "integrity_repaired", "qos_admitted", "qos_rejected", "qos_shed", "breaker_opens",
        "faults_injected", "io_events", "binsddf_bytes", "trace_mem_bytes", "spans",
        "span_io_events", "sim_exec_s")}
    return doc


class MetricsTest(unittest.TestCase):
    def test_end_to_end(self):
        m, details = stats.end_to_end(measure_doc())
        self.assertAlmostEqual(m["pass_s.p50"]["value"], 2.0)
        self.assertAlmostEqual(m["io_ops_per_s"]["value"], 500.0)
        self.assertAlmostEqual(m["setup_s"]["value"], 0.2)
        self.assertEqual(m["peak_rss_mb"]["value"], 2.0)
        self.assertEqual(m["trace_bytes_per_io"]["value"], 30.0)
        self.assertAlmostEqual(m["trace_overhead_x"]["value"], 3.0)
        self.assertEqual(details["passes"], 3)

    def test_timings_scale_with_the_mean_calibration_slice(self):
        doc = measure_doc()
        doc["calibration_s"] = [1.5 * s for s in doc["calibration_s"]]
        m, details = stats.end_to_end(doc)
        # The mean slice is now 1.5x nominal: the host ran 1.5x slower.
        self.assertAlmostEqual(details["host_factor"], 1.5)
        self.assertAlmostEqual(m["pass_s.p50"]["value"], 2.0 / 1.5)
        self.assertAlmostEqual(m["pass_s.tail"]["value"], 1.0 / 1.5)
        self.assertAlmostEqual(m["setup_s"]["value"], 0.2 / 1.5)
        self.assertAlmostEqual(m["io_ops_per_s"]["value"], 750.0)
        # Ratios of two timings from the same run do not scale.
        self.assertAlmostEqual(m["trace_overhead_x"]["value"], 3.0)
        self.assertEqual(details["cpu_s.p50"], 2.0)

    def test_per_layer(self):
        m, table = stats.per_layer(trace_doc())
        self.assertEqual(table["sum_error"], 0.0)
        self.assertEqual(table["self_s"]["sim"], 2.0)
        self.assertEqual(m["sim.run_s"]["value"], 3.0)
        self.assertEqual(m["sim.dispatch_ns"]["value"], 20.0)
        self.assertAlmostEqual(m["obs.span_cost_s"]["value"], 0.7)
        self.assertAlmostEqual(m["bench.trace_overhead_x"]["value"], 1.1)
        self.assertEqual(m["pfs.cache_hit_ratio"]["value"], 0.5)

    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e, _ = stats.end_to_end(measure_doc())
        e2e["ok_share"] = {"value": 1.0, "unit": "ratio"}
        layer, _ = stats.per_layer(trace_doc())
        self.assertEqual({n: m["unit"] for n, m in e2e.items()},
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})
        self.assertEqual({n: m["unit"] for n, m in layer.items()},
                         {m["name"]: m["unit"] for m in spec["per_layer"]})


if __name__ == "__main__":
    unittest.main()
