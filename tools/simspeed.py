#!/usr/bin/env python3
"""ddsim's speed record and CI's perf gate, both measured by ddbench.

Runs the command BENCHMARK.json names (python3 ddbench/run.py) on every
BENCHMARK.json workload, over seeds 0-4 with tracing off plus one
traced seed-0 pass each, and writes BENCH_simspeed.json schema 3. Per
workload it holds each end-to-end metric's median, quartiles and
per-seed values, every per-layer metric of the traced pass, and each
run's digest and "correct" flag; the snapshot also holds ddbench's
provenance (CPU model, nproc, compiler, flags, build type, git
describe). ddbench scales every end-to-end time by its host-speed
probe, which takes most, not all, of a host's speed out of them.

With --check it is also the perf gate: it prints every metric beside
the baseline snapshot's and exits 1 when
  - a run reported "correct" other than true;
  - a workload, or a gated metric, is missing from either snapshot;
  - a gated metric's median is worse than the baseline's by more than
    its BENCHMARK.json bound, in the metric's "better" direction.
Every other metric is printed with its delta but not gated.

usage: tools/simspeed.py [--seconds S] [--out PATH] [--check BASELINE]
  --seconds  run length of each untraced run (default: BENCHMARK.json's
             run_seconds); 1 gives one measured pass per seed
  --out      the snapshot to write (default: BENCH_simspeed.json)
  --check    a committed snapshot to gate against

Stdlib only.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, ".bench_build", "ddbench", "results")
SCHEMA = 3
SEEDS = (0, 1, 2, 3, 4)
TRACED_SEED = 0
# The speed of record plus the harness's two correctness measures.
# points_per_s is minst_per_s times a per-seed constant. The latency
# and set-up metrics are printed only: at CI's one pass per seed they
# are too noisy for their 25% bounds.
GATED = ("minst_per_s", "ipc_accuracy_pct", "ok_frac")


def load(path):
    with open(path) as f:
        return json.load(f)


def run_ddbench(spec, workload, seed, seconds, trace):
    """One run of the benchmark command: its "correct" flag and the
    result document it leaves in RESULTS."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("simspeed: `%s` exited %d"
                         % (" ".join(cmd), proc.returncode))
    correct = json.loads(proc.stdout.splitlines()[-1])["correct"]
    doc = load(os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                            % (workload, seed, trace)))
    print("%s seed %d trace %d: digest %s, correct %s"
          % (workload, seed, trace, doc["digest"], correct),
          file=sys.stderr, flush=True)
    return correct, doc


def measure(spec, seconds):
    """Run every workload and return the schema-3 snapshot."""
    provenance, workloads = None, {}
    for w in spec["workloads"]:
        name = w["name"]
        runs, values = [], {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            correct, doc = run_ddbench(spec, name, seed, seconds, 0)
            provenance = provenance or doc["provenance"]
            runs.append({"seed": seed, "trace": 0, "correct": correct,
                         "digest": doc["digest"]})
            for metric, v in values.items():
                v.append(doc["metrics"][metric]["value"])
        correct, doc = run_ddbench(spec, name, TRACED_SEED, seconds, 1)
        runs.append({"seed": TRACED_SEED, "trace": 1, "correct": correct,
                     "digest": doc["digest"]})
        end_to_end = {}
        for metric, v in values.items():
            q1, median, q3 = statistics.quantiles(v, n=4,
                                                  method="inclusive")
            end_to_end[metric] = {"median": median, "q1": q1, "q3": q3,
                                  "per_seed": v}
        # A layer the workload does not exercise has no value.
        per_layer = {m["name"]: doc["metrics"][m["name"]]["value"]
                     for m in spec["per_layer"]
                     if m["name"] in doc["metrics"]}
        workloads[name] = {"runs": runs, "end_to_end": end_to_end,
                           "per_layer": per_layer}
    return {"bench": "simspeed", "schema": SCHEMA,
            "command": spec["command"], "run_seconds": seconds,
            "seeds": list(SEEDS), "provenance": provenance,
            "workloads": workloads}


def worse_by(base, fresh, better):
    """How much worse fresh is than base, as a fraction of base
    (negative when it is better)."""
    if base == 0:
        change = 0.0 if fresh == 0 else math.copysign(math.inf, fresh)
    else:
        change = (fresh - base) / abs(base)
    return -change if better == "higher" else change


def row(label, base, fresh, better, verdict=""):
    """One table line; the delta is positive when fresh is better."""
    values = ["-" if v is None else "%.6g" % v for v in (base, fresh)]
    delta = "missing" if "-" in values else \
        "%+.1f%%" % (0.0 - 100 * worse_by(base, fresh, better))
    print("  %-40s %12s %12s %9s  %s" % (label, *values, delta, verdict))


def check(base, fresh, spec):
    """Print fresh beside base (None: correctness only) and return
    the gate's failures; an empty list passes."""
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        f = fresh["workloads"].get(name)
        if f is None:
            failures.append("%s: missing from the fresh snapshot" % name)
            continue
        failures += ["%s seed %d trace %d: ddbench reported correct=%s"
                     % (name, r["seed"], r["trace"], r["correct"])
                     for r in f["runs"] if r["correct"] is not True]
        if base is None:
            continue
        b = base["workloads"].get(name)
        if b is None:
            failures.append("%s: missing from the baseline" % name)
            continue
        print("%s (end to end: median of seeds %s; better = +)"
              % (name, ", ".join(str(s) for s in fresh["seeds"])))
        for m in spec["end_to_end"]:
            metric, better = m["name"], m["better"]
            bv = b["end_to_end"].get(metric, {}).get("median")
            fv = f["end_to_end"].get(metric, {}).get("median")
            verdict = ""
            if metric in GATED:
                bound, problem = "%g%%" % (100 * m["bound"]), None
                if bv is None or fv is None:
                    problem = "missing from the %s snapshot" % (
                        "fresh" if fv is None else "baseline")
                elif worse_by(bv, fv, better) > m["bound"]:
                    problem = ("%.6g is worse than the baseline's %.6g by "
                               "more than %s" % (fv, bv, bound))
                if problem:
                    failures.append("%s %s: %s" % (name, metric, problem))
                verdict = "bound %s  %s" % (bound,
                                            "FAIL" if problem else "ok")
            row("%s (%s)" % (metric, m["unit"]), bv, fv, better, verdict)
        print("  per layer (seed %d, traced; not gated):" % TRACED_SEED)
        for m in spec["per_layer"]:
            bv = b["per_layer"].get(m["name"])
            fv = f["per_layer"].get(m["name"])
            if bv is not None or fv is not None:
                row("%s (%s)" % (m["name"], m["unit"]), bv, fv,
                    m["better"])
    return failures


def main():
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="run length of each untraced run")
    ap.add_argument("--out", default=os.path.join(ROOT,
                                                  "BENCH_simspeed.json"),
                    help="the snapshot to write")
    ap.add_argument("--check", metavar="BASELINE",
                    help="a committed snapshot to gate against")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    # Read before measuring, so --out may name the baseline itself.
    base = load(args.check) if args.check else None
    if base is not None and base.get("schema") != SCHEMA:
        ap.error("%s is not a schema-%d snapshot" % (args.check, SCHEMA))

    fresh = measure(spec, args.seconds)
    with open(args.out, "w") as f:
        json.dump(fresh, f, indent=2)
        f.write("\n")
    print("wrote %s" % args.out, file=sys.stderr)

    failures = check(base, fresh, spec)
    for msg in failures:
        print("FAIL " + msg, file=sys.stderr)
    if failures:
        return 1
    print("OK: every run correct%s" % (
        "; no gated metric worse than its bound" if base else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
