#!/usr/bin/env python3
"""Unit tests for tools/simspeed.py: the perf gate's check() on
synthetic schema-3 snapshots and a small bounds table, and the
snapshot's per-seed summary with the benchmark command stubbed out.
Nothing here builds or runs ddbench. Stdlib only; run directly or via
ctest.
"""

import contextlib
import importlib.util
import io
import os
import unittest

_TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "tools", "simspeed.py")
_spec = importlib.util.spec_from_file_location("simspeed", _TOOL)
simspeed = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(simspeed)

# The shape of BENCHMARK.json, cut down to what the gate reads.
SPEC = {
    "command": ["python3", "ddbench/run.py"],
    "workloads": [{"name": "fig7-exact"}, {"name": "sampled-long"}],
    "end_to_end": [
        {"name": "minst_per_s", "unit": "Minst/s", "better": "higher",
         "bound": 0.25},
        {"name": "point_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "ipc_accuracy_pct", "unit": "%", "better": "higher",
         "bound": 0.01},
        {"name": "ok_frac", "unit": "ratio", "better": "higher",
         "bound": 0.01},
    ],
    "per_layer": [
        {"name": "sim.run_ns_per_inst", "unit": "ns/inst",
         "better": "lower"},
    ],
}


def snapshot():
    """A schema-3 snapshot of every SPEC workload, all runs correct."""
    def metric(median):
        return {"median": median, "q1": median, "q3": median,
                "per_seed": [median] * len(simspeed.SEEDS)}

    def workload(minst):
        runs = [{"seed": s, "trace": 0, "correct": True,
                 "digest": "%016x" % s} for s in simspeed.SEEDS]
        runs.append({"seed": 0, "trace": 1, "correct": True,
                     "digest": "%016x" % 0})
        return {"runs": runs,
                "end_to_end": {"minst_per_s": metric(minst),
                               "point_ms_p50": metric(30.0),
                               "ipc_accuracy_pct": metric(99.5),
                               "ok_frac": metric(1.0)},
                "per_layer": {"sim.run_ns_per_inst": 150.0}}
    return {"bench": "simspeed", "schema": simspeed.SCHEMA,
            "seeds": list(simspeed.SEEDS),
            "workloads": {"fig7-exact": workload(6.5),
                          "sampled-long": workload(32.0)}}


def scaled(workload, metric, factor):
    """snapshot() with one median multiplied by factor."""
    doc = snapshot()
    doc["workloads"][workload]["end_to_end"][metric]["median"] *= factor
    return doc


def failures(fresh, base=None):
    with contextlib.redirect_stdout(io.StringIO()):
        return simspeed.check(base or snapshot(), fresh, SPEC)


class Gate(unittest.TestCase):
    def test_identical_snapshots_pass(self):
        self.assertEqual(failures(snapshot()), [])

    def test_minst_per_s_within_its_bound_passes(self):
        self.assertEqual(
            failures(scaled("fig7-exact", "minst_per_s", 0.76)), [])

    def test_minst_per_s_beyond_its_bound_fails(self):
        got = failures(scaled("sampled-long", "minst_per_s", 0.74))
        self.assertEqual(len(got), 1)
        self.assertIn("sampled-long minst_per_s", got[0])

    def test_ipc_accuracy_two_percent_lower_fails(self):
        got = failures(scaled("fig7-exact", "ipc_accuracy_pct", 0.98))
        self.assertEqual(len(got), 1)
        self.assertIn("ipc_accuracy_pct", got[0])

    def test_ok_frac_two_percent_lower_fails(self):
        self.assertEqual(
            len(failures(scaled("fig7-exact", "ok_frac", 0.98))), 1)

    def test_better_than_the_baseline_passes(self):
        fresh = scaled("fig7-exact", "minst_per_s", 3.0)
        fresh["workloads"]["fig7-exact"]["end_to_end"]["point_ms_p50"][
            "median"] = 10.0
        self.assertEqual(failures(fresh), [])

    def test_ungated_metrics_are_printed_not_gated(self):
        fresh = scaled("fig7-exact", "point_ms_p50", 2.0)
        fresh["workloads"]["fig7-exact"]["per_layer"][
            "sim.run_ns_per_inst"] = 900.0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(simspeed.check(snapshot(), fresh, SPEC), [])
        self.assertIn("point_ms_p50", out.getvalue())
        self.assertIn("sim.run_ns_per_inst", out.getvalue())

    def test_missing_workload_fails(self):
        fresh = snapshot()
        del fresh["workloads"]["sampled-long"]
        got = failures(fresh)
        self.assertEqual(len(got), 1)
        self.assertIn("sampled-long", got[0])

    def test_missing_gated_metric_fails(self):
        for metric in simspeed.GATED:
            fresh = snapshot()
            del fresh["workloads"]["fig7-exact"]["end_to_end"][metric]
            got = failures(fresh)
            self.assertEqual(len(got), 1, metric)
            self.assertIn(metric, got[0])

    def test_fresh_snapshot_keeping_one_gated_row_lists_the_rest(self):
        fresh = snapshot()
        del fresh["workloads"]["sampled-long"]
        for metric in ("ipc_accuracy_pct", "ok_frac"):
            del fresh["workloads"]["fig7-exact"]["end_to_end"][metric]
        self.assertEqual(len(failures(fresh)), 3)

    def test_gated_metric_missing_from_the_baseline_fails(self):
        base = snapshot()
        del base["workloads"]["fig7-exact"]["end_to_end"]["minst_per_s"]
        self.assertEqual(len(failures(snapshot(), base)), 1)

    def test_incorrect_run_fails(self):
        for correct in (False, None):
            fresh = snapshot()
            fresh["workloads"]["sampled-long"]["runs"][5]["correct"] = \
                correct
            got = failures(fresh)
            self.assertEqual(len(got), 1)
            self.assertIn("sampled-long seed 0 trace 1", got[0])

    def test_without_a_baseline_only_correctness_counts(self):
        fresh = scaled("fig7-exact", "minst_per_s", 0.1)
        self.assertEqual(simspeed.check(None, fresh, SPEC), [])
        fresh["workloads"]["fig7-exact"]["runs"][0]["correct"] = False
        self.assertEqual(len(simspeed.check(None, fresh, SPEC)), 1)


class Snapshot(unittest.TestCase):
    def test_measure_summarises_every_seed(self):
        calls = []

        def fake_run(spec, workload, seed, seconds, trace):
            calls.append((workload, seed, seconds, trace))
            metrics = {m["name"]: {"value": float(seed + 1)}
                       for m in spec["end_to_end"] + spec["per_layer"]}
            return True, {"provenance": {"cpu_model": "test cpu"},
                          "digest": "%016x" % seed, "metrics": metrics}

        real = simspeed.run_ddbench
        simspeed.run_ddbench = fake_run
        try:
            snap = simspeed.measure(SPEC, 45)
        finally:
            simspeed.run_ddbench = real

        runs = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1)]
        self.assertEqual(calls, [(w["name"], s, 45, t)
                                 for w in SPEC["workloads"]
                                 for s, t in runs])
        self.assertEqual(snap["schema"], 3)
        self.assertEqual(snap["run_seconds"], 45)
        self.assertEqual(snap["provenance"], {"cpu_model": "test cpu"})
        wl = snap["workloads"]["sampled-long"]
        self.assertEqual(wl["end_to_end"]["minst_per_s"],
                         {"median": 3.0, "q1": 2.0, "q3": 4.0,
                          "per_seed": [1.0, 2.0, 3.0, 4.0, 5.0]})
        self.assertEqual(wl["per_layer"], {"sim.run_ns_per_inst": 1.0})
        self.assertEqual([(r["seed"], r["trace"]) for r in wl["runs"]],
                         runs)
        self.assertEqual(failures(snap, snap), [])


if __name__ == "__main__":
    unittest.main()
