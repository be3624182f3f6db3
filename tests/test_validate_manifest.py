#!/usr/bin/env python3
"""Unit tests for tools/validate_manifest.py — the negative cases.

The positive path (real simulator output validates) is exercised by
test_robust, test_farm and the kill/resume smoke; these tests pin the
validator's ability to *reject*: duplicate or missing farm job ids,
non-dense grid ids, inconsistent counts, statuses without errors.
Stdlib only; run directly or via ctest.
"""

import binascii
import copy
import importlib.util
import json
import os
import tempfile
import unittest

_TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "tools", "validate_manifest.py")
_spec = importlib.util.spec_from_file_location("validate_manifest",
                                               _TOOL)
vm = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(vm)


def grid_doc():
    """A minimal valid ddsim-grid-v1 document."""
    def job(i):
        return {
            "id": i,
            "workload": "li",
            "scale": 4,
            "seed": 24301,
            "max_insts": 1000,
            "warmup_insts": 0,
            "config": {"notation": "(2+0)"},
        }
    return {
        "schema": vm.GRID_SCHEMA,
        "title": "test grid",
        "num_jobs": 3,
        "jobs": [job(i) for i in range(3)],
    }


def farm_doc():
    """A minimal valid ddsim-farm-manifest-v1 document."""
    def job(i, status="ok", worker="w0"):
        j = {"id": i, "worker": worker, "status": status,
             "attempts": 1, "wall_seconds": 0.5}
        if status != "ok":
            j["attempts"] = 2
            j["error"] = {"kind": "io", "message": "injected",
                          "transient": True}
        return j
    return {
        "schema": vm.FARM_SCHEMA,
        "title": "test farm",
        "generator": {"name": "ddsim", "version": "1", "git": "abc"},
        "num_jobs": 4,
        "workers": ["w0", "w1"],
        "shards": [
            {"shard": 0, "num_jobs": 2, "jobs": [job(0), job(2)]},
            {"shard": 1, "num_jobs": 2,
             "jobs": [job(1, worker="w1"),
                      job(3, status="recovered", worker="w1")]},
        ],
    }


class GridSpecChecks(unittest.TestCase):
    def test_valid_grid_passes(self):
        self.assertEqual(vm.check_grid_spec(grid_doc(), "grid"), 3)

    def assertRejected(self, doc, fragment):
        with self.assertRaises(vm.Invalid) as ctx:
            vm.check_grid_spec(doc, "grid")
        self.assertIn(fragment, str(ctx.exception))

    def test_rejects_non_dense_ids(self):
        doc = grid_doc()
        doc["jobs"][1]["id"] = 7
        self.assertRejected(doc, "dense")

    def test_rejects_num_jobs_mismatch(self):
        doc = grid_doc()
        doc["num_jobs"] = 5
        self.assertRejected(doc, "num_jobs")

    def test_rejects_empty_grid(self):
        doc = grid_doc()
        doc["jobs"] = []
        self.assertRejected(doc, "empty grid")

    def test_rejects_missing_notation(self):
        doc = grid_doc()
        del doc["jobs"][2]["config"]["notation"]
        self.assertRejected(doc, "notation")

    def test_rejects_zero_scale(self):
        doc = grid_doc()
        doc["jobs"][0]["scale"] = 0
        self.assertRejected(doc, "scale")

    def test_accepts_annotate_policies(self):
        doc = grid_doc()
        doc["jobs"][0]["annotate"] = "safe"
        doc["jobs"][1]["annotate"] = "hybrid"
        self.assertEqual(vm.check_grid_spec(doc, "grid"), 3)

    def test_rejects_unknown_annotate_policy(self):
        doc = grid_doc()
        doc["jobs"][0]["annotate"] = "yolo"
        self.assertRejected(doc, "annotate policy")

    def test_accepts_engines_and_sampled_plan(self):
        doc = grid_doc()
        doc["jobs"][0]["engine"] = "batched"
        doc["jobs"][1]["engine"] = "sampled"
        doc["jobs"][1]["sampling"] = {"period": 4096, "detail": 2560,
                                      "warmup": 256}
        self.assertEqual(vm.check_grid_spec(doc, "grid"), 3)

    def test_rejects_unknown_engine(self):
        doc = grid_doc()
        doc["jobs"][0]["engine"] = "warp-drive"
        self.assertRejected(doc, "unknown engine")

    def test_rejects_sampled_without_plan(self):
        doc = grid_doc()
        doc["jobs"][0]["engine"] = "sampled"
        self.assertRejected(doc, "without a")

    def test_rejects_plan_on_exact_engine(self):
        doc = grid_doc()
        doc["jobs"][0]["engine"] = "batched"
        doc["jobs"][0]["sampling"] = {"period": 4096, "detail": 2560,
                                      "warmup": 256}
        self.assertRejected(doc, "only 'sampled'")

    def test_rejects_overlong_sampling_window(self):
        doc = grid_doc()
        doc["jobs"][0]["engine"] = "sampled"
        doc["jobs"][0]["sampling"] = {"period": 1024, "detail": 1024,
                                      "warmup": 1}
        self.assertRejected(doc, "exceed period")

    def test_rejects_sampled_with_whole_run_warmup(self):
        doc = grid_doc()
        doc["jobs"][0]["engine"] = "sampled"
        doc["jobs"][0]["sampling"] = {"period": 4096, "detail": 2560,
                                      "warmup": 256}
        doc["jobs"][0]["warmup_insts"] = 100
        self.assertRejected(doc, "whole-run warmup")

    def test_accepts_trace_path_point(self):
        doc = grid_doc()
        doc["jobs"][0]["trace_path"] = "traces/sample.xt"
        doc["jobs"][0]["engine"] = "replay"
        self.assertEqual(vm.check_grid_spec(doc, "grid"), 3)

    def test_rejects_empty_trace_path(self):
        doc = grid_doc()
        doc["jobs"][0]["trace_path"] = ""
        self.assertRejected(doc, "empty trace_path")

    def test_rejects_trace_path_with_annotate(self):
        doc = grid_doc()
        doc["jobs"][0]["trace_path"] = "traces/sample.xt"
        doc["jobs"][0]["annotate"] = "safe"
        self.assertRejected(doc, "annotate policy")

    def test_rejects_trace_path_with_live_engine(self):
        doc = grid_doc()
        doc["jobs"][0]["trace_path"] = "traces/sample.xt"
        doc["jobs"][0]["engine"] = "live"
        self.assertRejected(doc, "live engine")


class FarmManifestChecks(unittest.TestCase):
    def test_valid_farm_passes(self):
        self.assertEqual(vm.check_farm_manifest(farm_doc(), "farm"), 4)

    def assertRejected(self, doc, fragment):
        with self.assertRaises(vm.Invalid) as ctx:
            vm.check_farm_manifest(doc, "farm")
        self.assertIn(fragment, str(ctx.exception))

    def test_rejects_duplicate_job_id(self):
        doc = farm_doc()
        doc["shards"][1]["jobs"][0]["id"] = 0
        self.assertRejected(doc, "already reported")

    def test_rejects_missing_job_id(self):
        doc = farm_doc()
        doc["shards"][1]["jobs"][1]["id"] = 9
        self.assertRejected(doc, "missing [3]")

    def test_rejects_unknown_worker(self):
        doc = farm_doc()
        doc["shards"][0]["jobs"][0]["worker"] = "w9"
        self.assertRejected(doc, "not in the workers list")

    def test_rejects_unknown_status(self):
        doc = farm_doc()
        doc["shards"][0]["jobs"][0]["status"] = "exploded"
        self.assertRejected(doc, "unknown status")

    def test_rejects_failed_status_without_error(self):
        doc = farm_doc()
        del doc["shards"][1]["jobs"][1]["error"]
        self.assertRejected(doc, "error")

    def test_rejects_ok_status_with_error(self):
        doc = farm_doc()
        doc["shards"][0]["jobs"][0]["error"] = {
            "kind": "io", "message": "x", "transient": True}
        self.assertRejected(doc, "ok job carries an error")

    def test_rejects_shard_count_mismatch(self):
        doc = farm_doc()
        doc["shards"][0]["num_jobs"] = 3
        self.assertRejected(doc, "num_jobs")


def lint_doc():
    """A minimal valid ddsim-lint-v1 document: two programs, one with
    a warning diagnostic, mixes consistent with the verdict arrays."""
    def verdict(i, inst, load, v, annotated=False):
        return {"id": i, "inst": inst, "load": load, "verdict": v,
                "annotated": annotated}
    prog_a = {
        "program": "alpha",
        "errors": 0, "warnings": 1, "notes": 0,
        "loads": {"local": 1, "nonlocal": 1, "ambiguous": 0},
        "stores": {"local": 1, "nonlocal": 0, "ambiguous": 1},
        "verdicts": [
            verdict(0, 2, True, "local", annotated=True),
            verdict(1, 5, False, "local", annotated=True),
            verdict(2, 9, True, "nonlocal"),
            verdict(3, 12, False, "ambiguous"),
        ],
        "functions": [],
        "diagnostics": [
            {"severity": "warning", "id": "sp-inexact", "inst": 4,
             "function": "main", "message": "dynamic frame"},
        ],
    }
    prog_b = {
        "program": "beta",
        "errors": 0, "warnings": 0, "notes": 0,
        "loads": {"local": 0, "nonlocal": 0, "ambiguous": 0},
        "stores": {"local": 1, "nonlocal": 0, "ambiguous": 0},
        "verdicts": [verdict(0, 3, False, "local", annotated=True)],
        "functions": [],
        "diagnostics": [],
    }
    return {
        "schema": vm.LINT_SCHEMA,
        "generator": {"name": "ddsim", "version": "1", "git": "abc"},
        "programs": [prog_a, prog_b],
        "summary": {
            "programs": 2,
            "errors": 0, "warnings": 1, "notes": 0,
            "loads": {"local": 1, "nonlocal": 1, "ambiguous": 0},
            "stores": {"local": 2, "nonlocal": 0, "ambiguous": 1},
        },
    }


class LintDocumentChecks(unittest.TestCase):
    def test_valid_lint_doc_passes(self):
        self.assertEqual(vm.check_lint_document(lint_doc(), "lint"), 2)

    def assertRejected(self, doc, fragment):
        with self.assertRaises(vm.Invalid) as ctx:
            vm.check_lint_document(doc, "lint")
        self.assertIn(fragment, str(ctx.exception))

    def test_rejects_unknown_verdict(self):
        doc = lint_doc()
        doc["programs"][0]["verdicts"][2]["verdict"] = "maybe"
        self.assertRejected(doc, "unknown verdict")

    def test_rejects_non_dense_verdict_ids(self):
        doc = lint_doc()
        doc["programs"][0]["verdicts"][1]["id"] = 5
        self.assertRejected(doc, "dense")

    def test_rejects_non_increasing_inst(self):
        doc = lint_doc()
        doc["programs"][0]["verdicts"][1]["inst"] = 2
        self.assertRejected(doc, "strictly")

    def test_rejects_mix_inconsistent_with_verdicts(self):
        doc = lint_doc()
        doc["programs"][0]["loads"]["local"] = 2
        self.assertRejected(doc, "verdicts array totals")

    def test_rejects_diag_count_mismatch(self):
        doc = lint_doc()
        doc["programs"][0]["warnings"] = 0
        self.assertRejected(doc, "diagnostics array holds")

    def test_rejects_summary_total_drift(self):
        doc = lint_doc()
        doc["summary"]["stores"]["local"] = 7
        self.assertRejected(doc, "programs total")

    def test_rejects_summary_program_count(self):
        doc = lint_doc()
        doc["summary"]["programs"] = 3
        self.assertRejected(doc, "summary.programs")

    def test_rejects_duplicate_program(self):
        doc = lint_doc()
        doc["programs"][1] = copy.deepcopy(doc["programs"][0])
        self.assertRejected(doc, "duplicate program")

    def test_rejects_missing_generator(self):
        doc = lint_doc()
        del doc["generator"]["git"]
        self.assertRejected(doc, "generator")

    def test_rejects_unknown_severity(self):
        doc = lint_doc()
        doc["programs"][0]["diagnostics"][0]["severity"] = "fatal"
        self.assertRejected(doc, "unknown severity")


def run_doc():
    """A minimal valid ddsim-manifest-v1 run document."""
    return {
        "schema": vm.RUN_SCHEMA,
        "generator": {"name": "ddsim", "version": "1", "git": "abc"},
        "run": {
            "workload": "li",
            "config": {
                "notation": "(2+0)",
                "l1": {"size_bytes": 32768, "assoc": 4,
                       "line_bytes": 32, "hit_latency": 1, "ports": 2},
            },
            "wall_seconds": 0.1,
            "options": {"engine": "replay"},
        },
        "result": {
            "cycles": 100, "committed": 150, "ipc": 1.5,
            "streams": {"lsq": {"loads": 10, "stores": 5},
                        "lvaq": {"loads": 20, "stores": 8}},
        },
    }


class RunManifestChecks(unittest.TestCase):
    """External-trace provenance and the sampled error-bar rule."""

    def assertRejected(self, doc, fragment):
        with self.assertRaises(vm.Invalid) as ctx:
            vm.check_run_manifest(doc, "run")
        self.assertIn(fragment, str(ctx.exception))

    def test_minimal_run_passes(self):
        vm.check_run_manifest(run_doc(), "run")

    def test_accepts_trace_source(self):
        doc = run_doc()
        doc["run"]["trace_source"] = {
            "format": "xtrace", "path": "/tmp/sample.xt",
            "insts": 201, "hints_valid": True}
        vm.check_run_manifest(doc, "run")

    def test_rejects_unknown_trace_format(self):
        doc = run_doc()
        doc["run"]["trace_source"] = {
            "format": "pcap", "path": "x", "insts": 1,
            "hints_valid": False}
        self.assertRejected(doc, "unknown format")

    def test_rejects_empty_trace(self):
        doc = run_doc()
        doc["run"]["trace_source"] = {
            "format": "xtrace", "path": "x", "insts": 0,
            "hints_valid": False}
        self.assertRejected(doc, "insts 0")

    def test_rejects_live_engine_on_trace_run(self):
        doc = run_doc()
        doc["run"]["options"]["engine"] = "live"
        doc["run"]["trace_source"] = {
            "format": "xtrace", "path": "x", "insts": 1,
            "hints_valid": False}
        self.assertRejected(doc, "live engine")

    def sampled_doc(self, windows, ci=None):
        doc = run_doc()
        doc["run"]["options"]["engine"] = "sampled"
        doc["result"]["sampling"] = {
            "period": 4096, "detail": 2560, "warmup": 256,
            "windows": windows, "detail_insts": 100,
            "detail_cycles": 80}
        if ci is not None:
            doc["result"]["sampling"]["ipc_ci95"] = ci
        return doc

    def test_accepts_multi_window_with_ci(self):
        vm.check_run_manifest(self.sampled_doc(3, ci=0.05), "run")

    def test_accepts_single_window_without_ci(self):
        vm.check_run_manifest(self.sampled_doc(1), "run")

    def test_rejects_single_window_with_ci(self):
        self.assertRejected(self.sampled_doc(1, ci=0.05),
                            "needs >= 2")

    def test_rejects_multi_window_without_ci(self):
        self.assertRejected(self.sampled_doc(2), "ipc_ci95")


class SweepManifestChecks(unittest.TestCase):
    """The pre-existing degraded-sweep checks still hold after the
    farm extensions (regression guard for the shared helpers)."""

    def sweep_doc(self):
        return {
            "schema": vm.SWEEP_SCHEMA,
            "title": "t",
            "generator": {"name": "n", "version": "v", "git": "g"},
            "num_runs": 2,
            "degraded": True,
            "num_quarantined": 1,
            "num_recovered": 0,
            "jobs": [
                {"index": 0, "status": "ok", "attempts": 1,
                 "error": None},
                {"index": 1, "status": "quarantined", "attempts": 3,
                 "error": {"kind": "program", "message": "boom",
                           "transient": False}},
            ],
            "runs": [None, None],
        }

    def test_degraded_sweep_passes(self):
        vm.check_sweep_manifest(self.sweep_doc(), "sweep")

    def test_rejects_quarantine_count_mismatch(self):
        doc = self.sweep_doc()
        doc["num_quarantined"] = 0
        with self.assertRaises(vm.Invalid):
            vm.check_sweep_manifest(doc, "sweep")

    def test_rejects_quarantined_with_manifest(self):
        doc = self.sweep_doc()
        doc["runs"][1] = copy.deepcopy(doc["runs"][0])
        doc["runs"][1] = {"schema": "x"}
        with self.assertRaises(vm.Invalid):
            vm.check_sweep_manifest(doc, "sweep")

    def test_rejects_sweep_without_job_table(self):
        # One writer emits every sweep manifest, always with the job
        # table; a document without it is not one of ours.
        doc = self.sweep_doc()
        for key in ("degraded", "num_quarantined", "num_recovered",
                    "jobs"):
            del doc[key]
        with self.assertRaises(vm.Invalid):
            vm.check_sweep_manifest(doc, "sweep")


def sealed(schema, payload_key, payload):
    """Render a CRC-sealed spool artifact the way the C++ writer does:
    wrapper {schema, crc32, <payload_key>: {...}} with the payload
    last, seal patched in over the raw text. Returns (doc, raw)."""
    doc = {"schema": schema, "crc32": "00000000", payload_key: payload}
    raw = json.dumps(doc, indent=2)
    body = vm.crc_payload(raw, payload_key, "fixture")
    crc = f"{binascii.crc32(body.encode()) & 0xffffffff:08x}"
    raw = raw.replace('"crc32": "00000000"', f'"crc32": "{crc}"', 1)
    return json.loads(raw), raw


def result_record(status="ok", mcrc="deadbeef"):
    rec = {"id": 2, "status": status, "attempts": 1, "error": None,
           "worker": "w0", "shard": 0, "wall_seconds": 0.5,
           "manifest_crc32": mcrc}
    if status != "ok":
        rec["attempts"] = 3
        rec["error"] = {"kind": "hung", "message": "watchdog",
                        "transient": False}
    return rec


class SpooledJobChecks(unittest.TestCase):
    """CRC-sealed ddsim-job-v2 spool artifacts."""

    def job(self):
        return grid_doc()["jobs"][0]

    def test_valid_sealed_job_passes(self):
        doc, raw = sealed(vm.JOB_SCHEMA, "job", self.job())
        vm.check_job_v2(doc, raw, "job")

    def test_rejects_tampered_payload(self):
        doc, raw = sealed(vm.JOB_SCHEMA, "job", self.job())
        raw = raw.replace('"workload": "li"', '"workload": "xx"')
        with self.assertRaises(vm.Invalid) as ctx:
            vm.check_job_v2(json.loads(raw), raw, "job")
        self.assertIn("crc32 seal", str(ctx.exception))

    def test_rejects_tampered_seal(self):
        doc, raw = sealed(vm.JOB_SCHEMA, "job", self.job())
        raw = raw.replace(f'"crc32": "{doc["crc32"]}"',
                          '"crc32": "00000000"')
        with self.assertRaises(vm.Invalid) as ctx:
            vm.check_job_v2(json.loads(raw), raw, "job")
        self.assertIn("corrupt", str(ctx.exception))

    def test_rejects_bad_grid_job_even_when_sealed(self):
        job = self.job()
        job["scale"] = 0
        doc, raw = sealed(vm.JOB_SCHEMA, "job", job)
        with self.assertRaises(vm.Invalid) as ctx:
            vm.check_job_v2(doc, raw, "job")
        self.assertIn("scale", str(ctx.exception))


class SpooledResultChecks(unittest.TestCase):
    """CRC-sealed ddsim-job-result-v2 records and their sibling
    manifest hash."""

    def test_valid_sealed_record_passes(self):
        doc, raw = sealed(vm.JOB_RESULT_SCHEMA, "record",
                          result_record())
        vm.check_job_result_v2(doc, raw, "result")

    def test_rejects_tampered_record(self):
        doc, raw = sealed(vm.JOB_RESULT_SCHEMA, "record",
                          result_record())
        raw = raw.replace('"worker": "w0"', '"worker": "wX"')
        with self.assertRaises(vm.Invalid) as ctx:
            vm.check_job_result_v2(json.loads(raw), raw, "result")
        self.assertIn("crc32 seal", str(ctx.exception))

    def test_rejects_quarantined_record_with_manifest_crc(self):
        doc, raw = sealed(vm.JOB_RESULT_SCHEMA, "record",
                          result_record(status="quarantined"))
        with self.assertRaises(vm.Invalid) as ctx:
            vm.check_job_result_v2(doc, raw, "result")
        self.assertIn("promises a", str(ctx.exception))

    def test_accepts_quarantined_record_without_manifest(self):
        doc, raw = sealed(vm.JOB_RESULT_SCHEMA, "record",
                          result_record(status="quarantined",
                                        mcrc=None))
        vm.check_job_result_v2(doc, raw, "result")

    def test_rejects_non_hex_manifest_crc(self):
        doc, raw = sealed(vm.JOB_RESULT_SCHEMA, "record",
                          result_record(mcrc="NOTAHEX!"))
        with self.assertRaises(vm.Invalid) as ctx:
            vm.check_job_result_v2(doc, raw, "result")
        self.assertIn("8 hex", str(ctx.exception))

    def test_sibling_manifest_hash_is_verified(self):
        manifest = b'{"schema": "x", "result": 1}\n'
        mcrc = f"{binascii.crc32(manifest) & 0xffffffff:08x}"
        doc, raw = sealed(vm.JOB_RESULT_SCHEMA, "record",
                          result_record(mcrc=mcrc))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "job-000002.json")
            with open(path, "w") as f:
                f.write(raw)
            with open(os.path.join(d, "job-000002.manifest.json"),
                      "wb") as f:
                f.write(manifest)
            vm.check_job_result_v2(doc, raw, "result", path=path)

            # One flipped byte in the manifest and the record's
            # promise no longer holds.
            with open(os.path.join(d, "job-000002.manifest.json"),
                      "wb") as f:
                f.write(manifest[:-2] + b"2\n")
            with self.assertRaises(vm.Invalid) as ctx:
                vm.check_job_result_v2(doc, raw, "result", path=path)
            self.assertIn("manifest is corrupt", str(ctx.exception))

    def test_missing_sibling_is_tolerated(self):
        doc, raw = sealed(vm.JOB_RESULT_SCHEMA, "record",
                          result_record())
        vm.check_job_result_v2(doc, raw, "result",
                               path="/nonexistent/job-000002.json")


class ClaimChecks(unittest.TestCase):
    """ddsim-claim-v1 lease documents."""

    def claim(self):
        return {"schema": vm.CLAIM_SCHEMA, "id": 1, "shard": 0,
                "worker": "w0", "pid": 4242,
                "acquired_unix": 1754500000,
                "job_crc32": "0badf00d"}

    def assertRejected(self, doc, fragment):
        with self.assertRaises(vm.Invalid) as ctx:
            vm.check_claim_v1(doc, "claim")
        self.assertIn(fragment, str(ctx.exception))

    def test_valid_claim_passes(self):
        vm.check_claim_v1(self.claim(), "claim")

    def test_rejects_zero_pid(self):
        doc = self.claim()
        doc["pid"] = 0
        self.assertRejected(doc, "pid")

    def test_rejects_empty_worker(self):
        doc = self.claim()
        doc["worker"] = ""
        self.assertRejected(doc, "empty worker")

    def test_rejects_non_hex_job_crc(self):
        doc = self.claim()
        doc["job_crc32"] = "0badf00dz"
        self.assertRejected(doc, "8 hex")

    def test_rejects_negative_acquired_time(self):
        doc = self.claim()
        doc["acquired_unix"] = -1
        self.assertRejected(doc, "acquired_unix")


if __name__ == "__main__":
    unittest.main()
