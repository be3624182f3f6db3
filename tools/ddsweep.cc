/**
 * @file
 * ddsweep: the sweep-farm driver. Executes a ddsim-grid-v1 grid (as
 * exported by any figure bench via --emit-grid) across crash-isolated
 * worker processes, with durable spooling, work-stealing, resume and
 * bit-identical merged manifests. See docs/FARM.md.
 *
 * Usage: ddsweep <command> [options]
 *
 * Commands:
 *   spool    --grid=F --spool=DIR [--shards=N]
 *            Persist the grid as a fresh spool directory.
 *   run      --grid=F --spool=DIR [--shards=N] [--workers=N]
 *            Spool (the directory must be fresh), supervise workers
 *            until complete, then merge.
 *   resume   --spool=DIR [--retry-quarantined] [--workers=N]
 *            Requeue incomplete/stranded points of an interrupted
 *            spool, supervise, and merge.
 *   worker   --spool=DIR --worker=ID [--shard=K] [--parent=PID]
 *            [--max-jobs=N] [--lease-secs=S]
 *            Internal: one claim-run loop (the supervisor spawns
 *            these; invoke directly only in tests). Workers heartbeat
 *            their claims when --lease-secs > 0 and drain gracefully
 *            on SIGTERM: the in-flight point completes and persists,
 *            then the process exits 0 with no claim stranded.
 *   merge    --spool=DIR [--merged=F] [--farm=F]
 *            Merge a complete spool without running anything. Every
 *            record and manifest is CRC-verified first; corrupt
 *            artifacts are quarantined into <spool>/corrupt and the
 *            merge refuses to splice them (resume re-runs them).
 *   serial   --grid=F --merged=F [--workers=N]
 *            In-process SweepRunner reference over the same grid: the
 *            document `run` must reproduce byte-for-byte, and the one
 *            a bench writes with --manifest for the grid it emits.
 *   status   --spool=DIR
 *            Print progress plus, per in-flight claim, lease age and
 *            heartbeat freshness; exit 0 when complete, 3 when not.
 *
 * Options shared by run/resume/worker/serial:
 *   --attempts=N --backoff-ms=N --max-backoff-ms=N   retry policy
 *   --cycle-budget=N --wall-budget=SECONDS           per-job guards
 *   --trace-cache-mb=N   byte budget for the per-process recorded-
 *     trace cache (LRU eviction; 0 = unlimited)
 *   --inject=SPEC[;SPEC...] --inject-seed=N          fault injection,
 *     SPEC = kind:workload:notation[:arg], kind one of transient,
 *     persistent, alloc, crash, hang, drop-wakeup, corrupt-trace;
 *     empty workload/notation match any.
 * run/resume additionally: --merged=F --farm=F --respawn-limit=N
 *   --crash-quarantine-after=N
 *   --lease-secs=S    claims whose heartbeat goes stale past S are
 *     reclaimed from the (SIGKILLed) wedged worker; default 300, 0
 *     disables. Forwarded to workers as their heartbeat interval.
 *   --job-wall-secs=S quarantine (error kind "hung") any job holding
 *     its claim longer than S; default 0 = no per-job watchdog.
 *   --stall-worker=ID test hook: the named worker SIGSTOPs itself
 *     after its first claim (lease-expiry smoke).
 *   (They forward the shared options to every worker they spawn.)
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "config/cli.hh"
#include "robust/fault_inject.hh"
#include "sim/farm.hh"
#include "sim/grid_spec.hh"
#include "util/error.hh"
#include "util/file_claim.hh"
#include "util/log.hh"
#include "util/str.hh"
#include "util/subprocess.hh"

using namespace ddsim;
using namespace ddsim::sim;

namespace {

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string::size_type start = 0;
    while (true) {
        std::string::size_type pos = s.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
}

robust::FaultKind
faultKindFromToken(const std::string &token)
{
    using robust::FaultKind;
    if (token == "transient")
        return FaultKind::JobTransient;
    if (token == "persistent")
        return FaultKind::JobPersistent;
    if (token == "alloc")
        return FaultKind::AllocFail;
    if (token == "crash")
        return FaultKind::JobCrash;
    if (token == "hang")
        return FaultKind::JobHang;
    if (token == "drop-wakeup")
        return FaultKind::DropWakeup;
    if (token == "corrupt-trace")
        return FaultKind::CorruptTrace;
    fatal("--inject: unknown fault kind '%s' (expected transient, "
          "persistent, alloc, crash, hang, drop-wakeup or "
          "corrupt-trace)",
          token.c_str());
}

/**
 * Parse --inject / --inject-seed and install the injector for the
 * rest of the process. Held by value in main's scope: destruction
 * deactivates injection.
 */
struct Injection
{
    std::optional<robust::FaultInjector> injector;
    std::optional<robust::ScopedFaultInjection> scope;

    void install(const config::CliArgs &args)
    {
        std::string spec = args.get("inject");
        std::uint64_t seed =
            static_cast<std::uint64_t>(args.getInt("inject-seed", 1));
        if (spec.empty())
            return;
        injector.emplace(seed);
        for (const std::string &one : splitOn(spec, ';')) {
            std::vector<std::string> f = splitOn(one, ':');
            if (f.size() < 3 || f.size() > 4)
                fatal("--inject: spec '%s' is not "
                      "kind:workload:notation[:arg]",
                      one.c_str());
            robust::FaultSpec fs;
            fs.kind = faultKindFromToken(f[0]);
            fs.workload = f[1];
            fs.notation = f[2];
            if (f.size() == 4) {
                std::int64_t arg = 0;
                if (!parseInt(f[3], arg) || arg < 0)
                    fatal("--inject: bad arg '%s' in '%s'",
                          f[3].c_str(), one.c_str());
                fs.arg = static_cast<std::uint64_t>(arg);
            }
            injector->add(std::move(fs));
        }
        scope.emplace(*injector);
    }
};

RetryPolicy
retryFromArgs(const config::CliArgs &args)
{
    RetryPolicy p;
    p.maxAttempts = static_cast<int>(args.getInt("attempts", 3));
    p.backoffMs =
        static_cast<std::uint64_t>(args.getInt("backoff-ms", 10));
    p.maxBackoffMs = static_cast<std::uint64_t>(
        args.getInt("max-backoff-ms", 1000));
    return p;
}

std::string
requireOpt(const config::CliArgs &args, const std::string &key,
           const char *command)
{
    std::string v = args.get(key);
    if (v.empty())
        fatal("ddsweep %s: --%s is required", command, key.c_str());
    return v;
}

/** The shared options run/resume forward verbatim to their workers. */
std::vector<std::string>
forwardedWorkerArgs(const config::CliArgs &args)
{
    std::vector<std::string> out;
    for (const char *key :
         {"attempts", "backoff-ms", "max-backoff-ms", "cycle-budget",
          "wall-budget", "trace-cache-mb", "inject", "inject-seed",
          "stall-worker"}) {
        if (args.has(key))
            out.push_back("--" + std::string(key) + "=" +
                          args.get(key));
    }
    return out;
}

void
printStatus(const farm::SpoolStatus &st)
{
    std::printf("points: total=%zu done=%zu (ok=%zu recovered=%zu "
                "quarantined=%zu) pending=%zu claimed=%zu corrupt=%zu "
                "shards=%d\n",
                st.total, st.done(), st.ok, st.recovered,
                st.quarantined, st.pending, st.claimed, st.corrupt,
                st.shards);
}

/** One line per in-flight claim: who holds the lease and how fresh
 *  its heartbeat is — the first thing to read when a farm stalls. */
void
printLeases(const farm::SpoolStatus &st)
{
    for (const farm::ClaimInfo &ci : st.leases) {
        std::printf("claim: job=%llu shard=%d worker=%s",
                    static_cast<unsigned long long>(ci.id), ci.shard,
                    ci.worker.c_str());
        if (ci.pid)
            std::printf(" pid=%d", static_cast<int>(ci.pid));
        if (ci.heartbeatAge >= 0)
            std::printf(" heartbeat=%.1fs", ci.heartbeatAge);
        else
            std::printf(" heartbeat=?");
        if (ci.jobAge >= 0)
            std::printf(" lease-age=%.1fs", ci.jobAge);
        std::printf("\n");
    }
}

/** Everything run/resume consult, queried up front so rejectUnknown()
 *  can fire before hours of simulation start. */
struct FarmPlan
{
    farm::SupervisorOptions sup;
    std::string merged;
    std::string farmDoc;
};

FarmPlan
farmPlanFromArgs(const config::CliArgs &args, const char *argv0,
                 const std::string &spool)
{
    FarmPlan plan;
    plan.sup.exePath = currentExecutable(argv0);
    plan.sup.workers = static_cast<int>(args.getInt("workers", 2));
    plan.sup.respawnLimit =
        static_cast<int>(args.getInt("respawn-limit", 8));
    plan.sup.crashQuarantineAfter = static_cast<int>(
        args.getInt("crash-quarantine-after", 2));
    plan.sup.leaseSecs = args.getSeconds("lease-secs", 300.0);
    plan.sup.jobWallSecs = args.getSeconds("job-wall-secs", 0.0);
    plan.sup.workerArgs = forwardedWorkerArgs(args);
    plan.merged = args.get("merged", spool + "/merged.json");
    plan.farmDoc = args.get("farm", spool + "/farm.json");
    return plan;
}

/** Supervise an already-prepared spool, then merge and report. If the
 *  merge quarantines corrupt artifacts, requeue and run once more —
 *  corruption is supposed to be re-run, not fatal — but give up after
 *  a few rounds rather than loop on a disk that keeps eating bytes. */
int
superviseAndMerge(const FarmPlan &plan, const std::string &spool)
{
    farm::SpoolStatus st = farm::superviseFarm(spool, plan.sup);
    for (int round = 0;; ++round) {
        try {
            farm::mergeSpool(spool, plan.merged, plan.farmDoc);
            break;
        } catch (const CorruptArtifactError &e) {
            if (round >= 2)
                throw;
            warn("%s; re-running the quarantined points (round %d)",
                 e.what(), round + 1);
            farm::requeueIncomplete(spool, false);
            st = farm::superviseFarm(spool, plan.sup);
        }
    }

    printStatus(st);
    std::printf("merged: %s\nfarm: %s\n", plan.merged.c_str(),
                plan.farmDoc.c_str());
    if (st.quarantined)
        warn("sweep is degraded: %zu of %zu points quarantined",
             st.quarantined, st.total);
    return 0;
}

int
cmdSpool(const config::CliArgs &args)
{
    GridSpec spec =
        GridSpec::fromFile(requireOpt(args, "grid", "spool"));
    std::string spool = requireOpt(args, "spool", "spool");
    int shards = static_cast<int>(args.getInt("shards", 1));
    args.rejectUnknown();
    farm::spoolGrid(spec, spool, shards);
    std::printf("spooled %zu jobs across %d shards into %s\n",
                spec.jobs.size(), shards, spool.c_str());
    return 0;
}

int
cmdRun(const config::CliArgs &args, const char *argv0)
{
    std::string gridPath = requireOpt(args, "grid", "run");
    std::string spool = requireOpt(args, "spool", "run");
    int shards = static_cast<int>(
        args.getInt("shards", args.getInt("workers", 2)));
    FarmPlan plan = farmPlanFromArgs(args, argv0, spool);
    args.rejectUnknown();

    GridSpec spec = GridSpec::fromFile(gridPath);
    farm::spoolGrid(spec, spool, shards);
    return superviseAndMerge(plan, spool);
}

int
cmdResume(const config::CliArgs &args, const char *argv0)
{
    std::string spool = requireOpt(args, "spool", "resume");
    bool retryQuarantined = args.getBool("retry-quarantined");
    FarmPlan plan = farmPlanFromArgs(args, argv0, spool);
    args.rejectUnknown();

    std::size_t requeued =
        farm::requeueIncomplete(spool, retryQuarantined);
    std::printf("requeued %zu points\n", requeued);
    return superviseAndMerge(plan, spool);
}

int
cmdWorker(const config::CliArgs &args)
{
    std::string spool = requireOpt(args, "spool", "worker");
    farm::WorkerOptions opts;
    opts.workerId = args.get("worker", "w0");
    opts.shard = static_cast<int>(args.getInt("shard", -1));
    opts.retry = retryFromArgs(args);
    opts.cycleBudget =
        static_cast<std::uint64_t>(args.getInt("cycle-budget", 0));
    opts.wallBudget = args.getDouble("wall-budget", 0.0);
    opts.traceCacheBytes = args.getMbBytes("trace-cache-mb", 0);
    opts.maxJobs =
        static_cast<std::size_t>(args.getInt("max-jobs", 0));
    opts.exitIfReparented =
        static_cast<pid_t>(args.getInt("parent", 0));
    opts.leaseSecs = args.getSeconds("lease-secs", 0.0);
    opts.gracefulDrain = true;
    opts.stallAfterFirstClaim =
        !args.get("stall-worker").empty() &&
        args.get("stall-worker") == opts.workerId;
    args.rejectUnknown();
    std::size_t done = farm::runWorker(spool, opts);
    std::printf("worker %s: completed %zu jobs\n",
                opts.workerId.c_str(), done);
    return 0;
}

int
cmdMerge(const config::CliArgs &args)
{
    std::string spool = requireOpt(args, "spool", "merge");
    std::string merged = args.get("merged", spool + "/merged.json");
    std::string farmDoc = args.get("farm", spool + "/farm.json");
    args.rejectUnknown();
    farm::mergeSpool(spool, merged, farmDoc);
    std::printf("merged: %s\nfarm: %s\n", merged.c_str(),
                farmDoc.c_str());
    return 0;
}

int
cmdSerial(const config::CliArgs &args)
{
    GridSpec spec =
        GridSpec::fromFile(requireOpt(args, "grid", "serial"));
    std::string merged = requireOpt(args, "merged", "serial");
    unsigned workers =
        static_cast<unsigned>(args.getInt("workers", 0));
    RetryPolicy retry = retryFromArgs(args);
    std::uint64_t cycleBudget =
        static_cast<std::uint64_t>(args.getInt("cycle-budget", 0));
    double wallBudget = args.getDouble("wall-budget", 0.0);
    std::size_t traceCacheBytes =
        args.getMbBytes("trace-cache-mb", 0);
    args.rejectUnknown();
    SweepOutcome out =
        farm::runSerial(spec, workers, retry, cycleBudget, wallBudget,
                        merged, traceCacheBytes);
    std::printf("serial: %zu runs (%zu quarantined) -> %s\n",
                out.results.size(), out.numQuarantined,
                merged.c_str());
    return 0;
}

int
cmdStatus(const config::CliArgs &args)
{
    std::string spool = requireOpt(args, "spool", "status");
    args.rejectUnknown();
    farm::SpoolStatus st = farm::scanSpool(spool);
    std::printf("spool: %s\n", spool.c_str());
    printStatus(st);
    printLeases(st);
    std::printf("complete: %s\n", st.complete() ? "yes" : "no");
    return st.complete() ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        config::CliArgs args(argc, argv);
        if (args.positional().size() != 1)
            fatal("usage: ddsweep "
                  "spool|run|resume|worker|merge|serial|status "
                  "[options] (see docs/FARM.md)");
        const std::string &cmd = args.positional()[0];

        // Injection applies to whichever command runs simulations in
        // this process (worker, serial); elsewhere the flags are
        // accepted and forwarded.
        Injection injection;
        injection.install(args);

        if (cmd == "spool")
            return cmdSpool(args);
        if (cmd == "run")
            return cmdRun(args, argv[0]);
        if (cmd == "resume")
            return cmdResume(args, argv[0]);
        if (cmd == "worker")
            return cmdWorker(args);
        if (cmd == "merge")
            return cmdMerge(args);
        if (cmd == "serial")
            return cmdSerial(args);
        if (cmd == "status")
            return cmdStatus(args);
        fatal("ddsweep: unknown command '%s'", cmd.c_str());
    } catch (const std::exception &e) {
        // fatal()/raise() already printed the message; anything else
        // still deserves a line before the nonzero exit.
        std::fprintf(stderr, "ddsweep: failed: %s\n", e.what());
        return 2;
    }
}
