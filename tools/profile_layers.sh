#!/bin/sh
# Where ddsim's host time goes, layer by layer.
#
# Builds ddbench with -pg into a work directory outside the tree
# (nothing under ddbench/ changes), runs one pass of a workload there,
# and folds gprof's flat profile into the simulator's layers: front
# end, fetch/dispatch, wakeup/select, mem queues, hierarchy, commit,
# stats, obs, and the bench itself (with run set-up). It folds the
# flat profile because `gprof -l` aborts on this build ("somebody
# miscounted").
#
# usage: tools/profile_layers.sh [workload] [work-dir]
#   workload   fig7-exact (default) or sampled-long
#   work-dir   build and run directory
#              (default: ${TMPDIR:-/tmp}/ddsim-profile-layers)
#
# gprof samples the whole process: set-up, the pass and ddbench's
# output checks. For fig7-exact the pass dominates. For sampled-long
# it does not: the check that reruns all 12 programs at 32x scale on
# the exact live engine takes most of the samples, so that table
# mostly profiles the exact core under Engine::Live, not the sampled
# pass. The table's first line says so.
#
# Prints the table and writes it to <work-dir>/layers-<workload>.txt.
# Exits 1 when the named layers hold under 90% of the samples: the
# fold no longer names where the time goes and needs new rules.
set -eu

workload=${1:-fig7-exact}
dir=${2:-${TMPDIR:-/tmp}/ddsim-profile-layers}
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
build=$dir/build
run=$dir/run-$workload

if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$root/ddbench" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
fi
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -gt 4 ] && jobs=4
cmake --build "$build" -j "$jobs" --target ddbench >&2

# One measured pass (--seconds 1 ends the loop after the first); gprof
# writes gmon.out into the working directory at exit.
rm -rf "$run"
mkdir -p "$run"
(cd "$run" && "$build/ddbench" --workload "$workload" --seed 0 \
    --seconds 1 --trace 0 --work-dir "$run/work" \
    --out "$run/result.json" >"$run/ddbench.out" 2>&1) || {
    cat "$run/ddbench.out" >&2
    exit 1
}
gprof -b -p "$build/ddbench" "$run/gmon.out" >"$run/flat.txt"

python3 - "$run/flat.txt" "$workload" "$dir/layers-$workload.txt" <<'EOF'
import re
import sys

flat_path, workload, out_path = sys.argv[1:4]

# First match wins; patterns search gprof's demangled names.
P = r"ddsim::cpu::Pipeline::"
LAYERS = [
    ("front end", [r"^ddsim::vm::", r"^ddsim::isa::",
                   # The sources' loop templates print their return type.
                   r"^[\w ]+ ddsim::vm::(Executor::execute|"
                   r"TraceReplay::decode)<",
                   r"^ddsim::prog::Program::fetch", P + r"fastForward\(",
                   r"^ddsim::cpu::\(anonymous namespace\)::WarmingSink::"]),
    ("fetch/dispatch", [P + r"(fetchStage|dispatchStage|registerConsumers|"
                        r"decoded|InstRing::)",
                        r"^ddsim::cpu::(Rob|RenameTable)::",
                        r"^ddsim::core::(Classifier|RegionPredictor)::"]),
    ("wakeup/select", [P + r"(issueStage|visitIssuable|onProducerComplete|"
                       r"pushStoreData|pushReady|srcReady|cycleOnce|run\(|"
                       r"runUntilFetched|done\(|streamDone|checkGuards)",
                       r"^ddsim::cpu::(FuPool|EventRing)::"]),
    ("mem queues", [r"^ddsim::core::(MemQueue|PortScheduler)::",
                    # A template: gprof prints its return type.
                    r"^[\w ]+ ddsim::core::findFastForwardStore<",
                    P + r"memoryStage"]),
    ("hierarchy", [r"^ddsim::mem::", r"^std::vector<ddsim::mem::"]),
    ("commit", [P + r"(commitStage|recordCommit|traceCommit|"
                r"raiseDeadlock|commitLog)"]),
    ("stats", [r"^ddsim::stats::"]),
    ("obs", [r"^ddsim::obs::"]),
    ("bench + set-up", [r"^ddbench::", r"^main$",
                        r"^ddsim::(sim|workloads|config|prog|util|io|"
                        r"robust|analysis)::",
                        r"^std::vector<ddsim::prog::",
                        P + r"(Pipeline|~Pipeline)\("]),
]

# "%time cumulative self [calls self/call total/call] name"
row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+"
                 r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
secs = {name: 0.0 for name, _ in LAYERS}
other = {}
total = 0.0
in_table = False
with open(flat_path) as f:
    for line in f:
        if line.strip().startswith("time   seconds"):
            in_table = True
            continue
        if not in_table or not line.strip():
            continue
        m = row.match(line)
        if not m:
            continue
        self_s, name = float(m.group(1)), m.group(2).strip()
        total += self_s
        for layer, pats in LAYERS:
            if any(re.search(p, name) for p in pats):
                secs[layer] += self_s
                break
        else:
            other[name] = other.get(name, 0.0) + self_s

if total <= 0:
    sys.exit("profile_layers: gprof recorded no samples")
named = sum(secs.values())
what = {"sampled-long": "one pass plus its exact-reference check "
                        "(Engine::Live, 12 programs at 32x), which takes "
                        "most of the samples"}.get(workload, "one pass")
lines = ["ddbench %s, %s, gprof flat profile (%.2f s sampled)"
         % (workload, what, total), "",
         "| Layer | Self s | Share |", "|---|---|---|"]
for layer, _ in LAYERS:
    lines.append("| %s | %.2f | %.1f%% |"
                 % (layer, secs[layer], 100 * secs[layer] / total))
lines.append("| other | %.2f | %.1f%% |"
             % (total - named, 100 * (total - named) / total))
lines += ["", "named layers: %.1f%% of samples" % (100 * named / total)]
if other:
    lines += ["", "largest unnamed functions:"]
    for name, s in sorted(other.items(), key=lambda kv: -kv[1])[:5]:
        lines.append("  %.2f s  %s" % (s, name[:100]))
text = "\n".join(lines) + "\n"
with open(out_path, "w") as f:
    f.write(text)
sys.stdout.write(text)
if named < 0.9 * total:
    sys.exit("profile_layers: named layers hold %.1f%% of the samples "
             "(< 90%%): update the fold" % (100 * named / total))
EOF
