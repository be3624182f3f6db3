/**
 * @file
 * Fault-tolerance suite: the error taxonomy, run guards (cycle and
 * wall-clock budgets), the deadlock watchdog, the crash black box,
 * atomic observability writes, TraceReader hardening against
 * corrupted input, the deterministic fault-injection harness, and
 * sweep failure isolation (retry, quarantine, degraded manifests).
 *
 * Labelled "robust" in ctest; CI runs it in the normal lane and again
 * under ASan/UBSan so the corruption fuzz tests have teeth.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "config/presets.hh"
#include "cpu/pipeline.hh"
#include "obs/blackbox.hh"
#include "obs/pipeline_trace.hh"
#include "robust/fault_inject.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "stats/group.hh"
#include "util/atomic_file.hh"
#include "util/log.hh"
#include "vm/xtrace.hh"
#include "workloads/common.hh"

using namespace ddsim;

namespace {

prog::Program
program(const char *name = "li", std::uint64_t scale = 5)
{
    workloads::WorkloadParams p;
    p.scale = scale;
    return workloads::build(name, p);
}

std::shared_ptr<const prog::Program>
programShared(const char *name, std::uint64_t scale = 5)
{
    return std::make_shared<const prog::Program>(program(name, scale));
}

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Decode a whole ddtrace file; returns the record count or throws. */
std::uint64_t
readAllTrace(const std::string &path)
{
    obs::TraceReader reader(path);
    obs::TraceRecord rec;
    std::uint64_t n = 0;
    while (reader.next(rec))
        ++n;
    return n;
}

/** Write a small, valid pipeline trace and return its path. */
std::string
writeValidTrace(const std::string &leaf)
{
    std::string path = tempPath(leaf);
    obs::PipelineTracer t(path, "wl", "(2+2)", "fuzz", 4);
    for (int i = 0; i < 4; ++i)
        t.onFetch(1);
    for (int i = 0; i < 4; ++i) {
        t.onDispatch(i, 10 + i, 3);
        t.onIssue(i, 5 + i);
        obs::TraceRecord r;
        r.seq = 10 + static_cast<std::uint64_t>(i);
        r.pcIdx = 100 + static_cast<std::uint32_t>(i);
        r.isLoad = (i & 1) != 0;
        r.dispatchCycle = 3;
        r.wbCycle = 7 + static_cast<Cycle>(i);
        r.commitCycle = 9 + static_cast<Cycle>(i);
        t.onCommit(i, r);
    }
    t.finish();
    return path;
}

class QuietGuard
{
  public:
    QuietGuard() { setQuiet(true); }
    ~QuietGuard() { setQuiet(false); }
};

} // namespace

// ---------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------

TEST(ErrorTaxonomy, KindsTransienceAndContext)
{
    ConfigError ce("l1.ports", "l1.ports: at least one port required");
    EXPECT_EQ(ce.kind(), "config");
    EXPECT_EQ(ce.field(), "l1.ports");
    EXPECT_FALSE(ce.transient());
    ASSERT_FALSE(ce.context().empty());
    EXPECT_EQ(ce.context()[0].first, "field");
    EXPECT_EQ(ce.context()[0].second, "l1.ports");

    IoError io("/no/such/file", "cannot open");
    EXPECT_EQ(io.kind(), "io");
    EXPECT_TRUE(io.transient());
    EXPECT_EQ(io.path(), "/no/such/file");

    TraceCorruptError tc("x.trace", 42, "bad varint");
    EXPECT_EQ(tc.kind(), "trace-corrupt");
    EXPECT_EQ(tc.byteOffset(), 42u);
    EXPECT_FALSE(tc.transient());

    DeadlockInfo di;
    di.cycle = 200123;
    di.sinceCommit = 100001;
    di.headSeq = 7;
    di.headDisasm = "lw r1, 0(sp)";
    di.robOccupancy = 12;
    DeadlockError dl(di, "no forward progress");
    EXPECT_EQ(dl.kind(), "deadlock");
    EXPECT_EQ(dl.info().headSeq, 7u);
    bool sawHeadSeq = false;
    for (const auto &kv : dl.context())
        sawHeadSeq |= kv.first == "head_seq" && kv.second == "7";
    EXPECT_TRUE(sawHeadSeq);

    BudgetExceededError be("cycles", 1000, 1001, "over budget");
    EXPECT_EQ(be.kind(), "budget");
    EXPECT_EQ(be.budget(), "cycles");
    EXPECT_EQ(be.limit(), 1000u);
    EXPECT_EQ(be.actual(), 1001u);
    EXPECT_FALSE(be.transient());
}

TEST(ErrorTaxonomy, HierarchyMatchesCatchSites)
{
    // User-facing failures stay catchable as FatalError (existing
    // call sites); runtime supervision errors are SimError only.
    ConfigError ce("f", "f: bad");
    ProgramError pe("bad program");
    IoError io("p", "bad io");
    TraceCorruptError tc("p", 0, "bad trace");
    EXPECT_NE(dynamic_cast<FatalError *>(&ce), nullptr);
    EXPECT_NE(dynamic_cast<FatalError *>(&pe), nullptr);
    EXPECT_NE(dynamic_cast<FatalError *>(&io), nullptr);
    EXPECT_NE(dynamic_cast<FatalError *>(&tc), nullptr);

    DeadlockError dl(DeadlockInfo{}, "stuck");
    BudgetExceededError be("wall", 1, 2, "slow");
    PanicError pa("bug");
    // Through SimError *, as a catch site sees them: a cast from the
    // concrete type could never succeed, and g++ says so.
    EXPECT_EQ(dynamic_cast<FatalError *>(static_cast<SimError *>(&dl)),
              nullptr);
    EXPECT_EQ(dynamic_cast<FatalError *>(static_cast<SimError *>(&be)),
              nullptr);
    EXPECT_EQ(dynamic_cast<FatalError *>(static_cast<SimError *>(&pa)),
              nullptr);
    EXPECT_NE(dynamic_cast<SimError *>(&dl), nullptr);
    EXPECT_NE(dynamic_cast<SimError *>(&be), nullptr);
    EXPECT_EQ(pa.kind(), "internal");
}

TEST(ErrorTaxonomy, RaisePreservesDynamicType)
{
    QuietGuard q;
    EXPECT_THROW(raise(ConfigError("f", "f: nope")), ConfigError);
    EXPECT_THROW(raise(IoError("p", "nope")), IoError);
    EXPECT_THROW(raise(BudgetExceededError("cycles", 1, 2, "x")),
                 BudgetExceededError);
    // ... and the base classes still catch them.
    EXPECT_THROW(raise(ConfigError("f", "f: nope")), FatalError);
    EXPECT_THROW(raise(DeadlockError(DeadlockInfo{}, "x")), SimError);
}

// ---------------------------------------------------------------------
// Config validation names the offending field
// ---------------------------------------------------------------------

TEST(ConfigValidation, FieldNamesRideOnTheError)
{
    QuietGuard q;
    auto fieldOf = [](const config::MachineConfig &cfg) {
        try {
            cfg.validate();
        } catch (const ConfigError &e) {
            return e.field();
        }
        return std::string();
    };

    config::MachineConfig cfg = config::baseline(2);
    cfg.robSize = 0;
    EXPECT_EQ(fieldOf(cfg), "robSize");

    cfg = config::baseline(2);
    cfg.fetchWidth = -1;
    EXPECT_EQ(fieldOf(cfg), "fetchWidth");

    cfg = config::baseline(2);
    cfg.l1.ports = 0;
    EXPECT_EQ(fieldOf(cfg), "l1.ports");

    cfg = config::baseline(2);
    cfg.l1.lineBytes = 48; // not a power of two
    EXPECT_EQ(fieldOf(cfg), "l1.lineBytes");

    cfg = config::decoupled(2, 2);
    cfg.lvc.sizeBytes = 0;
    EXPECT_EQ(fieldOf(cfg), "lvc.sizeBytes");

    // Valid presets pass.
    EXPECT_NO_THROW(config::baseline(2).validate());
    EXPECT_NO_THROW(config::decoupled(2, 2).validate());
}

// ---------------------------------------------------------------------
// Run guards: cycle and wall-clock budgets
// ---------------------------------------------------------------------

TEST(RunGuards, CycleBudgetRaisesTypedError)
{
    QuietGuard q;
    auto prog = program("li", 5);
    sim::RunOptions opts;
    opts.maxCycles = 500;
    try {
        sim::run(prog, config::baseline(2), opts);
        FAIL() << "expected BudgetExceededError";
    } catch (const BudgetExceededError &e) {
        EXPECT_EQ(e.budget(), "cycles");
        EXPECT_EQ(e.limit(), 500u);
        EXPECT_GT(e.actual(), e.limit());
    }
}

TEST(RunGuards, CycleBudgetTripsOneCyclePastTheBudget)
{
    // The run loops tick one cycle at a time, so every run that
    // outlasts its budget reports exactly the first cycle past it.
    QuietGuard q;
    const std::uint64_t budgets[] = {100,  500,  1000,  2500,
                                     5000, 7777, 10000, 20000};
    const config::MachineConfig cfgs[] = {config::baseline(2),
                                          config::decoupled(3, 2)};
    for (const workloads::WorkloadInfo &w : workloads::all()) {
        auto prog = program(w.name, w.defaultScale);
        for (const config::MachineConfig &cfg : cfgs) {
            for (std::uint64_t budget : budgets) {
                sim::RunOptions opts;
                opts.maxCycles = budget;
                try {
                    sim::run(prog, cfg, opts);
                    ADD_FAILURE() << w.name << " " << cfg.notation()
                                  << " finished within " << budget;
                } catch (const BudgetExceededError &e) {
                    EXPECT_EQ(e.actual(), e.limit() + 1)
                        << w.name << " " << cfg.notation() << " budget "
                        << budget;
                }
            }
        }
    }
}

TEST(RunGuards, WallBudgetRaisesTypedError)
{
    QuietGuard q;
    auto prog = program("li", 5);
    sim::RunOptions opts;
    opts.maxWallSeconds = 1e-9; // fires on the first rate-limited check
    try {
        sim::run(prog, config::baseline(2), opts);
        FAIL() << "expected BudgetExceededError";
    } catch (const BudgetExceededError &e) {
        EXPECT_EQ(e.budget(), "wall");
    }
}

TEST(RunGuards, GenerousBudgetLeavesResultsBitIdentical)
{
    auto prog = program("li", 5);
    sim::SimResult clean =
        sim::run(prog, config::decoupled(2, 2), {});
    sim::RunOptions opts;
    opts.maxCycles = clean.cycles * 10 + 1000;
    opts.maxWallSeconds = 3600.0;
    sim::SimResult guarded =
        sim::run(prog, config::decoupled(2, 2), opts);
    EXPECT_EQ(guarded.cycles, clean.cycles);
    EXPECT_EQ(guarded.committed, clean.committed);
    EXPECT_DOUBLE_EQ(guarded.ipc, clean.ipc);
}

// ---------------------------------------------------------------------
// Crash black box
// ---------------------------------------------------------------------

TEST(Blackbox, WrittenOnBudgetExceeded)
{
    QuietGuard q;
    auto prog = program("li", 5);
    std::string path = tempPath("budget.blackbox.json");
    sim::RunOptions opts;
    opts.maxCycles = 2000;
    opts.blackboxPath = path;
    EXPECT_THROW(sim::run(prog, config::baseline(2), opts),
                 BudgetExceededError);

    ASSERT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp")); // atomic publish
    std::string out = slurp(path);
    EXPECT_NE(out.find("\"schema\": \"ddsim-blackbox-v1\""),
              std::string::npos);
    EXPECT_NE(out.find("\"workload\": \"li\""), std::string::npos);
    EXPECT_NE(out.find("\"kind\": \"budget\""), std::string::npos);
    EXPECT_NE(out.find("\"last_commits\""), std::string::npos);
    EXPECT_NE(out.find("\"rob\""), std::string::npos);
    EXPECT_NE(out.find("\"stats\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Blackbox, RecordsTheStreamTheRunUsed)
{
    // Neither replaying run is handed RunOptions::trace: the replay
    // engine records its own, and an external trace is its own
    // stream. The crash report must say that they replayed, as the
    // manifest of a finished run would.
    QuietGuard q;
    auto li = programShared("li");
    auto xt = vm::ExternalTrace::fromProgram(li, 0, "workload", true);
    auto expectTraceReplay = [](const prog::Program &prog,
                                sim::RunOptions opts, const char *leaf,
                                bool replayed) {
        std::string path = tempPath(leaf);
        opts.maxCycles = 500;
        opts.blackboxPath = path;
        EXPECT_THROW(sim::run(prog, config::decoupled(3, 2), opts),
                     BudgetExceededError)
            << leaf;
        ASSERT_TRUE(fileExists(path)) << leaf;
        EXPECT_NE(slurp(path).find(replayed ? "\"trace_replay\": true"
                                            : "\"trace_replay\": false"),
                  std::string::npos)
            << leaf;
        std::remove(path.c_str());
    };

    sim::RunOptions replay;
    replay.engine = sim::Engine::Replay;
    expectTraceReplay(*li, replay, "replay.blackbox.json", true);

    sim::RunOptions external;
    external.externalTrace = xt;
    expectTraceReplay(xt->program(), external, "external.blackbox.json",
                      true);

    // The live engine ignores a supplied recording, and says so.
    sim::RunOptions live;
    live.engine = sim::Engine::Live;
    live.trace = vm::ExternalTrace::sharedTrace(xt);
    expectTraceReplay(xt->program(), live, "live.blackbox.json", false);
}

// ---------------------------------------------------------------------
// Deadlock watchdog
// ---------------------------------------------------------------------

TEST(Deadlock, ThresholdIsPinned)
{
    // The watchdog threshold is part of the error contract: black-box
    // reports and bug reports compare stall lengths against it.
    EXPECT_EQ(cpu::kDeadlockCycles, 100000u);
}

TEST(Deadlock, DroppedWakeupTripsWatchdogAndBlackbox)
{
    QuietGuard q;
    robust::FaultInjector inj(1);
    inj.add({robust::FaultKind::DropWakeup, "", "", 100});
    robust::ScopedFaultInjection scope(inj);

    auto prog = program("li", 5);
    std::string path = tempPath("deadlock.blackbox.json");
    sim::RunOptions opts;
    opts.blackboxPath = path;
    try {
        sim::run(prog, config::decoupled(2, 2), opts);
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError &e) {
        // The payload describes the stall precisely.
        EXPECT_GT(e.info().sinceCommit, cpu::kDeadlockCycles);
        EXPECT_GE(e.info().robOccupancy, 1);
        EXPECT_FALSE(e.info().headDisasm.empty());
        bool sawHead = false;
        for (const auto &kv : e.context())
            sawHead |= kv.first == "head_disasm";
        EXPECT_TRUE(sawHead);
    }

    ASSERT_TRUE(fileExists(path));
    std::string out = slurp(path);
    EXPECT_NE(out.find("\"kind\": \"deadlock\""), std::string::npos);
    EXPECT_NE(out.find("\"last_commits\""), std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Atomic observability writes
// ---------------------------------------------------------------------

TEST(AtomicWrite, CommitPublishesAndCleansUp)
{
    std::string path = tempPath("atomic.txt");
    {
        AtomicFile f(path);
        f.stream() << "payload\n";
        EXPECT_FALSE(fileExists(path)); // invisible until commit
        EXPECT_TRUE(fileExists(f.tempPath()));
        f.commit();
    }
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
    EXPECT_EQ(slurp(path), "payload\n");
    std::remove(path.c_str());
}

TEST(AtomicWrite, AbandonLeavesNothing)
{
    std::string path = tempPath("abandoned.txt");
    {
        AtomicFile f(path);
        f.stream() << "half-written";
        // Destructor abandons: the error path needs no explicit call.
    }
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
}

TEST(AtomicWrite, UnwritableDirectoryIsIoError)
{
    QuietGuard q;
    EXPECT_THROW(AtomicFile("/no/such/dir/x.json"), IoError);
}

TEST(AtomicWrite, FailedRunLeavesNoTornOutputs)
{
    QuietGuard q;
    auto prog = program("li", 5);
    std::string trace = tempPath("torn.trace");
    std::string manifest = tempPath("torn.manifest.json");
    sim::RunOptions opts;
    opts.maxCycles = 2000;
    opts.tracePath = trace;
    opts.manifestPath = manifest;
    EXPECT_THROW(sim::run(prog, config::decoupled(2, 2), opts),
                 BudgetExceededError);
    // The aborted trace is abandoned, not published half-written, and
    // the manifest (written at run end) never appears at all.
    EXPECT_FALSE(fileExists(trace));
    EXPECT_FALSE(fileExists(trace + ".tmp"));
    EXPECT_FALSE(fileExists(manifest));
    EXPECT_FALSE(fileExists(manifest + ".tmp"));
}

// ---------------------------------------------------------------------
// TraceReader hardening: corrupted input is a typed error, never UB
// ---------------------------------------------------------------------

TEST(TraceCorruption, EveryTruncationIsDetected)
{
    QuietGuard q;
    std::string good = writeValidTrace("fuzz_trunc.trace");
    std::string bytes = slurp(good);
    ASSERT_GT(bytes.size(), 30u);
    EXPECT_EQ(readAllTrace(good), 4u); // sanity: the base decodes

    std::string path = tempPath("fuzz_trunc_cut.trace");
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os.write(bytes.data(), static_cast<std::streamsize>(len));
        }
        // The intact header declares 4 records, so every shorter
        // prefix must fail to decode — as a typed error, not a crash.
        try {
            readAllTrace(path);
            ADD_FAILURE() << "truncation to " << len
                          << " bytes decoded successfully";
        } catch (const TraceCorruptError &e) {
            EXPECT_LE(e.byteOffset(), bytes.size());
        } catch (const IoError &) {
            // Zero-length opens can surface as I/O failures.
        }
    }
    std::remove(path.c_str());
    std::remove(good.c_str());
}

TEST(TraceCorruption, BitFlipsNeverEscapeTheTaxonomy)
{
    QuietGuard q;
    std::string good = writeValidTrace("fuzz_flip.trace");
    std::string bytes = slurp(good);
    std::string path = tempPath("fuzz_flip_bit.trace");
    std::size_t detected = 0, decoded = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutated = bytes;
            mutated[i] = static_cast<char>(
                mutated[i] ^ static_cast<char>(1u << bit));
            {
                std::ofstream os(path,
                                 std::ios::binary | std::ios::trunc);
                os.write(mutated.data(),
                         static_cast<std::streamsize>(mutated.size()));
            }
            // A flip may change payload values without breaking the
            // framing; what it must never do is crash or throw
            // anything outside the taxonomy.
            try {
                readAllTrace(path);
                ++decoded;
            } catch (const TraceCorruptError &) {
                ++detected;
            }
        }
    }
    EXPECT_GT(detected, 0u); // structural damage is caught...
    EXPECT_GT(decoded, 0u);  // ...and benign flips still decode
    std::remove(path.c_str());
    std::remove(good.c_str());
}

TEST(TraceCorruption, TenByteVarintOverflowIsDetected)
{
    // A hand-built one-record trace whose seq delta is nine 0xff bytes
    // then 0x7f: ten bytes that carry 70 bits. Only bit 0 of the last
    // byte fits in 64 bits; the rest must be an error, not a silently
    // truncated seq of UINT64_MAX.
    std::string bytes(obs::kTraceMagic, sizeof(obs::kTraceMagic));
    bytes += std::string("\x01\x00\x00\x00", 4); // version 1
    bytes += std::string(6, '\0');                // three empty strings
    bytes += std::string("\x01\x00\x00\x00\x00\x00\x00\x00", 8); // count
    bytes += std::string(9, '\xff') + '\x7f';     // seq delta
    bytes += std::string(9, '\0'); // pc, flags, commit, six offsets
    std::string path = tempPath("varint_overflow.trace");
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(readAllTrace(path), TraceCorruptError);

    // The same record with the largest legal last byte decodes.
    bytes[bytes.size() - 10] = '\x01';
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_EQ(readAllTrace(path), 1u);
    std::remove(path.c_str());
}

TEST(TraceCorruption, InjectedCorruptionCaughtByVerify)
{
    QuietGuard q;
    robust::FaultInjector inj(7);
    inj.add({robust::FaultKind::CorruptTrace, "", "", 1});
    robust::ScopedFaultInjection scope(inj);

    auto prog = program("li", 5);
    std::string trace = tempPath("injected.trace");
    sim::RunOptions opts;
    opts.tracePath = trace;
    opts.verifyTrace = true;
    try {
        sim::run(prog, config::decoupled(2, 2), opts);
        FAIL() << "expected TraceCorruptError";
    } catch (const TraceCorruptError &e) {
        EXPECT_EQ(e.path(), trace);
    }
    std::remove(trace.c_str());
}

// ---------------------------------------------------------------------
// Sweep failure isolation
// ---------------------------------------------------------------------

namespace {

sim::RetryPolicy
fastRetries(int maxAttempts = 3)
{
    sim::RetryPolicy p;
    p.maxAttempts = maxAttempts;
    p.backoffMs = 0;
    p.maxBackoffMs = 0;
    return p;
}

} // namespace

TEST(SweepIsolation, TransientFailureRecoversBitIdentical)
{
    auto li = programShared("li");
    sim::SimResult clean = sim::run(*li, config::decoupled(2, 2), {});

    QuietGuard q;
    robust::FaultInjector inj(3);
    inj.add({robust::FaultKind::JobTransient, "li", "", 1});
    robust::ScopedFaultInjection scope(inj);

    sim::SweepRunner runner(2);
    runner.setRetryPolicy(fastRetries());
    runner.submit(li, config::decoupled(2, 2));
    runner.submit(programShared("compress"), config::decoupled(2, 2));
    sim::SweepOutcome out = runner.collectOutcome();

    ASSERT_EQ(out.jobs.size(), 2u);
    EXPECT_FALSE(out.degraded);
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.numRecovered, 1u);
    EXPECT_EQ(out.jobs[0].status, sim::JobStatus::Recovered);
    EXPECT_EQ(out.jobs[0].attempts, 2);
    EXPECT_EQ(out.jobs[0].error.kind, "io");
    EXPECT_TRUE(out.jobs[0].error.transient);
    EXPECT_EQ(out.jobs[1].status, sim::JobStatus::Ok);
    // Determinism: the retried run is the run.
    EXPECT_EQ(out.results[0].cycles, clean.cycles);
    EXPECT_EQ(out.results[0].committed, clean.committed);
    EXPECT_DOUBLE_EQ(out.results[0].ipc, clean.ipc);
}

TEST(SweepIsolation, PersistentFailureIsQuarantined)
{
    QuietGuard q;
    robust::FaultInjector inj(4);
    inj.add({robust::FaultKind::JobPersistent, "li", "", 1});
    robust::ScopedFaultInjection scope(inj);

    sim::SweepRunner runner(2);
    runner.setRetryPolicy(fastRetries());
    runner.submit(programShared("li"), config::decoupled(2, 2));
    runner.submit(programShared("compress"), config::decoupled(2, 2));
    sim::SweepOutcome out = runner.collectOutcome();

    ASSERT_EQ(out.jobs.size(), 2u);
    EXPECT_TRUE(out.degraded);
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.numQuarantined, 1u);
    EXPECT_EQ(out.jobs[0].status, sim::JobStatus::Quarantined);
    EXPECT_EQ(out.jobs[0].attempts, 1); // non-transient: no retry
    EXPECT_EQ(out.jobs[0].error.kind, "program");
    EXPECT_EQ(out.results[0].cycles, 0u); // placeholder slot
    // The healthy neighbour is untouched.
    EXPECT_EQ(out.jobs[1].status, sim::JobStatus::Ok);
    EXPECT_GT(out.results[1].cycles, 0u);
}

TEST(SweepIsolation, RetryPolicyBoundsAttempts)
{
    QuietGuard q;
    robust::FaultInjector inj(5);
    inj.add({robust::FaultKind::JobTransient, "li", "", 10});
    robust::ScopedFaultInjection scope(inj);

    sim::SweepRunner runner(1);
    runner.setRetryPolicy(fastRetries(2));
    runner.submit(programShared("li"), config::decoupled(2, 2));
    sim::SweepOutcome out = runner.collectOutcome();

    ASSERT_EQ(out.jobs.size(), 1u);
    EXPECT_EQ(out.jobs[0].status, sim::JobStatus::Quarantined);
    EXPECT_EQ(out.jobs[0].attempts, 2);
    EXPECT_TRUE(out.jobs[0].error.transient);
}

// ---------------------------------------------------------------------
// Acceptance: a 12-workload sweep with one injected failure per class
// completes, quarantines exactly the injected points, and emits a
// degraded manifest the stdlib validator accepts.
// ---------------------------------------------------------------------

TEST(SweepIsolation, TwelveWorkloadDegradedSweepValidates)
{
    QuietGuard q;
    robust::FaultInjector inj(11);
    inj.add({robust::FaultKind::JobTransient, "li", "", 1});
    inj.add({robust::FaultKind::JobPersistent, "gcc", "", 1});
    inj.add({robust::FaultKind::AllocFail, "compress", "", 1});
    inj.add({robust::FaultKind::DropWakeup, "go", "", 100});
    inj.add({robust::FaultKind::CorruptTrace, "m88ksim", "", 1});
    robust::ScopedFaultInjection scope(inj);

    const std::vector<workloads::WorkloadInfo> &all = workloads::all();
    ASSERT_EQ(all.size(), 12u);

    std::string trace = tempPath("accept_m88ksim.trace");
    sim::SweepRunner runner;
    runner.setRetryPolicy(fastRetries());
    std::vector<std::string> names;
    for (const workloads::WorkloadInfo &w : all) {
        names.emplace_back(w.name);
        sim::SweepJob job;
        job.program = programShared(w.name, 3);
        job.cfg = config::decoupled(2, 2);
        job.opts.captureManifest = true;
        if (names.back() == "m88ksim") {
            job.opts.tracePath = trace;
            job.opts.verifyTrace = true;
        }
        runner.submit(std::move(job));
    }
    sim::SweepOutcome out = runner.collectOutcome();

    ASSERT_EQ(out.jobs.size(), 12u);
    EXPECT_TRUE(out.degraded);
    EXPECT_EQ(out.numQuarantined, 4u);
    EXPECT_EQ(out.numRecovered, 1u);
    for (std::size_t i = 0; i < out.jobs.size(); ++i) {
        const std::string &name = names[i];
        const sim::JobOutcome &jo = out.jobs[i];
        if (name == "li") {
            EXPECT_EQ(jo.status, sim::JobStatus::Recovered) << name;
            EXPECT_EQ(jo.error.kind, "io") << name;
        } else if (name == "gcc") {
            EXPECT_EQ(jo.status, sim::JobStatus::Quarantined) << name;
            EXPECT_EQ(jo.error.kind, "program") << name;
        } else if (name == "compress") {
            EXPECT_EQ(jo.status, sim::JobStatus::Quarantined) << name;
            EXPECT_EQ(jo.error.kind, "alloc") << name;
            EXPECT_EQ(jo.attempts, 3) << name; // transient: retried
        } else if (name == "go") {
            EXPECT_EQ(jo.status, sim::JobStatus::Quarantined) << name;
            EXPECT_EQ(jo.error.kind, "deadlock") << name;
        } else if (name == "m88ksim") {
            EXPECT_EQ(jo.status, sim::JobStatus::Quarantined) << name;
            EXPECT_EQ(jo.error.kind, "trace-corrupt") << name;
        } else {
            EXPECT_EQ(jo.status, sim::JobStatus::Ok) << name;
            EXPECT_GT(out.results[i].cycles, 0u) << name;
        }
    }

    std::string manifest = tempPath("accept_degraded.json");
    sim::writeSweepManifestFile("robust acceptance", out, manifest);
    ASSERT_TRUE(fileExists(manifest));
    EXPECT_FALSE(fileExists(manifest + ".tmp"));
    std::string doc = slurp(manifest);
    EXPECT_NE(doc.find("\"degraded\": true"), std::string::npos);
    EXPECT_NE(doc.find("\"status\": \"quarantined\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"status\": \"recovered\""), std::string::npos);

    if (std::system("python3 -c \"\" >/dev/null 2>&1") != 0) {
        std::remove(trace.c_str());
        GTEST_SKIP() << "python3 unavailable; validator not run";
    }
    std::string cmd = std::string("python3 \"") + DDSIM_SOURCE_DIR +
                      "/tools/validate_manifest.py\" \"" + manifest +
                      "\" >/dev/null";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::remove(manifest.c_str());
    std::remove(trace.c_str());
}

// ---------------------------------------------------------------------
// Injection disabled: the supervisor machinery is invisible
// ---------------------------------------------------------------------

TEST(FaultInjection, InactiveByDefaultAndScoped)
{
    EXPECT_EQ(robust::FaultInjector::active(), nullptr);
    {
        robust::FaultInjector inj(1);
        robust::ScopedFaultInjection scope(inj);
        EXPECT_EQ(robust::FaultInjector::active(), &inj);
    }
    EXPECT_EQ(robust::FaultInjector::active(), nullptr);
}

TEST(FaultInjection, DisabledInjectionLeavesTimingBitIdentical)
{
    // The differential suite pins the full 12x5 grid; here a spot
    // check shows the probe sites themselves are inert: a run under
    // an injector with no matching spec equals a run with none.
    auto prog = program("li", 5);
    sim::SimResult clean = sim::run(prog, config::decoupled(2, 2), {});
    robust::FaultInjector inj(9);
    inj.add({robust::FaultKind::JobPersistent, "no-such-workload", "",
             1});
    robust::ScopedFaultInjection scope(inj);
    sim::SimResult probed = sim::run(prog, config::decoupled(2, 2), {});
    EXPECT_EQ(probed.cycles, clean.cycles);
    EXPECT_EQ(probed.committed, clean.committed);
}
