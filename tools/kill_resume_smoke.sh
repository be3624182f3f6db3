#!/bin/sh
# Kill/resume smoke test for the atomic observability-write discipline
# and the sweep farm's resume guarantee.
#
# Every observability artifact (run manifest, sweep manifest, samples,
# pipeline trace, black box) is written to "<path>.tmp" and renamed
# into place only when complete, so a process killed at ANY instant
# must leave each final path either absent or fully valid — never
# torn. This script SIGKILLs instrumented runs mid-flight at several
# offsets, checks that invariant, then re-runs to completion ("resume")
# and validates the published artifacts. Phase 4 does the same to a
# whole ddsweep farm: SIGKILL the supervisor and its workers mid-grid,
# resume the spool, and demand the merged manifest match an
# uninterrupted serial reference byte-for-byte (docs/FARM.md).
#
# Usage: kill_resume_smoke.sh <build-dir> [workdir]
# Exits non-zero on the first violation.

set -eu

BUILD=${1:?usage: kill_resume_smoke.sh <build-dir> [workdir]}
WORK=${2:-$(mktemp -d)}
SRC=$(dirname "$0")/..
QUICKSTART="$BUILD/examples/quickstart"
BENCH="$BUILD/bench/bench_fig5_ports"
GRIDBENCH="$BUILD/bench/bench_fig7_nm"
DDTRACE="$BUILD/tools/ddtrace"
DDSWEEP="$BUILD/tools/ddsweep"
VALIDATE="$SRC/tools/validate_manifest.py"

fail() {
    echo "kill_resume_smoke: FAIL: $*" >&2
    exit 1
}

# If a final-name artifact exists, it must be complete and valid; a
# leftover "<path>.tmp" is the expected trace of a mid-write kill.
check_artifact() {
    path=$1
    kind=$2
    [ -e "$path" ] || return 0
    case $kind in
      json) python3 "$VALIDATE" "$path" \
                || fail "$path published but invalid" ;;
      trace) "$DDTRACE" "$path" --counts > /dev/null \
                || fail "$path published but undecodable" ;;
    esac
}

run_and_kill() {
    delay=$1
    shift
    "$@" > /dev/null 2>&1 &
    pid=$!
    sleep "$delay"
    kill -9 "$pid" 2> /dev/null || true # may have finished already
    wait "$pid" 2> /dev/null || true
}

echo "kill_resume_smoke: workdir $WORK"
mkdir -p "$WORK"
cd "$WORK"

# --- Phase 1: kill an instrumented single run at varied offsets -----
for delay in 0.2 0.5 1.0; do
    rm -f run.json run.trace run.samples.json bb.json
    run_and_kill "$delay" "$QUICKSTART" --workload=gcc --scale=3 \
        --manifest=run.json --trace=run.trace \
        --sample=run.samples.json --blackbox=bb.json
    check_artifact run.json json
    check_artifact bb.json json
    check_artifact run.trace trace
    echo "  single run killed at ${delay}s: no torn artifacts"
done

# --- Phase 2: kill a sweep while its manifest is in flight ----------
for delay in 0.3 0.8; do
    rm -f sweep.json
    run_and_kill "$delay" "$BENCH" --programs=li,gcc,compress \
        --scale=0.5 --manifest=sweep.json
    check_artifact sweep.json json
    echo "  sweep killed at ${delay}s: no torn artifacts"
done

# --- Phase 3: resume — the same commands run to completion ----------
rm -f run.json run.trace run.samples.json bb.json sweep.json
"$QUICKSTART" --workload=gcc --scale=1 --manifest=run.json \
    --trace=run.trace --sample=run.samples.json > /dev/null
"$BENCH" --programs=li,compress --scale=0.2 \
    --manifest=sweep.json > /dev/null
[ -e run.json ] || fail "resume did not publish run.json"
[ -e sweep.json ] || fail "resume did not publish sweep.json"
python3 "$VALIDATE" run.json sweep.json
"$DDTRACE" run.trace --counts > /dev/null \
    || fail "resumed trace undecodable"
[ -e run.json.tmp ] && fail "stale run.json.tmp after clean finish"
[ -e sweep.json.tmp ] && fail "stale sweep.json.tmp after clean finish"

# --- Phase 4: SIGKILL a whole sweep farm, resume the spool ----------
# The farm's contract (docs/FARM.md): every spool artifact is written
# atomically, so killing the supervisor and all its workers at any
# instant leaves a spool that `ddsweep resume` completes by re-running
# only the missing points — and the merged manifest comes out
# byte-identical to an uninterrupted single-process reference. The
# bench runs its own grid through that same reference path, so its
# --manifest must be the reference, byte for byte.
rm -rf spool grid.json ref.json bench.json
"$GRIDBENCH" --programs=li,compress --scale=0.2 \
    --emit-grid=grid.json > /dev/null
python3 "$VALIDATE" grid.json
"$DDSWEEP" serial --grid=grid.json --merged=ref.json > /dev/null
"$GRIDBENCH" --programs=li,compress --scale=0.2 \
    --manifest=bench.json > /dev/null
cmp ref.json bench.json \
    || fail "bench manifest differs from ddsweep serial on its grid"
echo "  bench --manifest matched ddsweep serial on its --emit-grid"

# Run the farm in its own process group and SIGKILL the whole group
# (supervisor + both workers) mid-grid.
setsid "$DDSWEEP" run --grid=grid.json --spool=spool --workers=2 \
    > /dev/null 2>&1 &
pid=$!
sleep 1.5
kill -9 "-$pid" 2> /dev/null || true # group may have finished already
wait "$pid" 2> /dev/null || true

"$DDSWEEP" resume --spool=spool --merged=spool/merged.json \
    --farm=spool/farm.json > /dev/null
cmp grid.json spool/grid.json \
    || fail "spooled grid drifted from the emitted spec"
cmp ref.json spool/merged.json \
    || fail "resumed farm manifest differs from serial reference"
python3 "$VALIDATE" spool/merged.json spool/farm.json
echo "  farm killed mid-grid: resume converged on reference bytes"

echo "kill_resume_smoke: PASS"
