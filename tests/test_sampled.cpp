/**
 * @file
 * Sampled-engine accuracy and plumbing suite.
 *
 * The headline pin: under the default SamplingPlan, every registry
 * workload's sampled IPC stays within 2% of the full-run IPC at the
 * registry default scale (the acceptance bound of the SMARTS-style
 * engine; the measured worst case when the plan was tuned was 1.35%,
 * so the pin has real margin without being flaky — the engine is
 * deterministic, a drift here means the warming or jitter logic
 * changed). Plus: the error-bar block, plan validation, engine-name
 * parsing with did-you-mean, and trace-replay equivalence of the
 * sampled estimate.
 *
 * DifferentialSampled pins the engine field for field: the 12
 * workloads plus the two adversarial frame workloads at default scale,
 * under the default and a sparse plan and configurations covering
 * every fast-forward warming branch, must reproduce every SimResult
 * field of sampled_baseline.inc (generated by `tools/ddbaseline
 * --sampled`). The 2% bound alone would let a warming loop that drops
 * a re-warm or miscounts a stream stat pass.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "config/presets.hh"
#include "cpu/pipeline.hh"
#include "isa/regs.hh"
#include "prog/builder.hh"
#include "sim/runner.hh"
#include "stats/group.hh"
#include "util/error.hh"
#include "util/log.hh"
#include "vm/executor.hh"
#include "vm/trace.hh"
#include "workloads/common.hh"

using namespace ddsim;
using namespace ddsim::sim;

namespace {

prog::Program
defaultScaleProgram(const workloads::WorkloadInfo &w)
{
    workloads::WorkloadParams p;
    p.scale = w.defaultScale;
    return workloads::build(w.name, p);
}

struct SampledRow
{
    const char *workload;
    const char *cfg;
    const char *plan;
    std::uint64_t cycles;
    std::uint64_t committed;
    double ipc;
    std::uint64_t loads;
    std::uint64_t stores;
    std::uint64_t localLoads;
    std::uint64_t localStores;
    double meanDynFrameWords;
    double meanStaticFrameWords;
    std::uint64_t l1Accesses;
    std::uint64_t l1Misses;
    double l1MissRate;
    std::uint64_t lvcAccesses;
    std::uint64_t lvcMisses;
    double lvcMissRate;
    std::uint64_t l2Accesses;
    std::uint64_t memAccesses;
    std::uint64_t lsqForwards;
    std::uint64_t lvaqForwards;
    std::uint64_t lvaqFastForwards;
    std::uint64_t lvaqCombined;
    std::uint64_t lvaqLoads;
    double lvaqSatisfiedFrac;
    double classifierAccuracy;
    std::uint64_t missteered;
    std::uint64_t classified;
    std::uint64_t toLvaq;
    std::uint64_t staticDecided;
    std::uint64_t windows;
    std::uint64_t detailInsts;
    std::uint64_t detailCycles;
    double ipcCi95;
};

const SampledRow kSampledBaseline[] = {
#include "sampled_baseline.inc"
};

/** Must stay in sync with sampledConfig() in tools/ddbaseline.cc. */
config::MachineConfig
sampledConfig(const std::string &name)
{
    config::MachineConfig cfg = config::decoupled(3, 2);
    if (name == "rep32")
        cfg.classifier = config::ClassifierKind::Replicate;
    else if (name == "pred32")
        cfg.classifier = config::ClassifierKind::Predictor;
    else if (name == "ann32")
        cfg.classifier = config::ClassifierKind::Annotation;
    else
        cfg = config::decoupledOptimized(3, 2);
    return cfg;
}

/** Must stay in sync with samplingPlan() in tools/ddbaseline.cc. */
SamplingPlan
samplingPlan(const std::string &name)
{
    SamplingPlan plan;
    if (name == "sparse") {
        plan.period = 32768;
        plan.detail = 2048;
        plan.warmup = 256;
    }
    return plan;
}

/** Default-scale workload programs, built once per test binary. */
const prog::Program &
programFor(const std::string &workload)
{
    static std::map<std::string, std::unique_ptr<prog::Program>> cache;
    auto it = cache.find(workload);
    if (it == cache.end())
        it = cache
                 .emplace(workload,
                          std::make_unique<prog::Program>(
                              defaultScaleProgram(
                                  *workloads::find(workload))))
                 .first;
    return *it->second;
}

class DifferentialSampled : public ::testing::TestWithParam<SampledRow>
{};

std::string
sampledRowName(const ::testing::TestParamInfo<SampledRow> &info)
{
    return std::string(info.param.workload) + "_" + info.param.cfg +
           "_" + info.param.plan;
}

} // namespace

TEST_P(DifferentialSampled, MatchesPinnedResult)
{
    const SampledRow &row = GetParam();
    const config::MachineConfig cfg = sampledConfig(row.cfg);
    RunOptions so;
    so.engine = Engine::Sampled;
    so.sampling = samplingPlan(row.plan);
    SimResult r = run(programFor(row.workload), cfg, so);

    EXPECT_EQ(r.program, row.workload);
    EXPECT_EQ(r.notation, cfg.notation());
    EXPECT_FALSE(r.quarantined);
    EXPECT_TRUE(r.statsText.empty());
    EXPECT_TRUE(r.manifestJson.empty());
    EXPECT_EQ(r.cycles, row.cycles);
    EXPECT_EQ(r.committed, row.committed);
    EXPECT_DOUBLE_EQ(r.ipc, row.ipc);
    EXPECT_EQ(r.loads, row.loads);
    EXPECT_EQ(r.stores, row.stores);
    EXPECT_EQ(r.localLoads, row.localLoads);
    EXPECT_EQ(r.localStores, row.localStores);
    EXPECT_DOUBLE_EQ(r.meanDynFrameWords, row.meanDynFrameWords);
    EXPECT_DOUBLE_EQ(r.meanStaticFrameWords, row.meanStaticFrameWords);
    EXPECT_EQ(r.l1Accesses, row.l1Accesses);
    EXPECT_EQ(r.l1Misses, row.l1Misses);
    EXPECT_DOUBLE_EQ(r.l1MissRate, row.l1MissRate);
    EXPECT_EQ(r.lvcAccesses, row.lvcAccesses);
    EXPECT_EQ(r.lvcMisses, row.lvcMisses);
    EXPECT_DOUBLE_EQ(r.lvcMissRate, row.lvcMissRate);
    EXPECT_EQ(r.l2Accesses, row.l2Accesses);
    EXPECT_EQ(r.memAccesses, row.memAccesses);
    EXPECT_EQ(r.lsqForwards, row.lsqForwards);
    EXPECT_EQ(r.lvaqForwards, row.lvaqForwards);
    EXPECT_EQ(r.lvaqFastForwards, row.lvaqFastForwards);
    EXPECT_EQ(r.lvaqCombined, row.lvaqCombined);
    EXPECT_EQ(r.lvaqLoads, row.lvaqLoads);
    EXPECT_DOUBLE_EQ(r.lvaqSatisfiedFrac, row.lvaqSatisfiedFrac);
    EXPECT_DOUBLE_EQ(r.classifierAccuracy, row.classifierAccuracy);
    EXPECT_EQ(r.missteered, row.missteered);
    EXPECT_EQ(r.classified, row.classified);
    EXPECT_EQ(r.toLvaq, row.toLvaq);
    EXPECT_EQ(r.staticDecided, row.staticDecided);

    EXPECT_TRUE(r.sampling.active);
    EXPECT_EQ(r.sampling.period, so.sampling.period);
    EXPECT_EQ(r.sampling.detail, so.sampling.detail);
    EXPECT_EQ(r.sampling.warmup, so.sampling.warmup);
    EXPECT_EQ(r.sampling.windows, row.windows);
    EXPECT_EQ(r.sampling.detailInsts, row.detailInsts);
    EXPECT_EQ(r.sampling.detailCycles, row.detailCycles);
    EXPECT_DOUBLE_EQ(r.sampling.ipcCi95, row.ipcCi95);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloadsPlansAndWarmingBranches,
                         DifferentialSampled,
                         ::testing::ValuesIn(kSampledBaseline),
                         sampledRowName);

TEST(Sampled, DefaultPlanWithinTwoPercentOnEveryWorkload)
{
    const config::MachineConfig cfg = config::decoupledOptimized(3, 2);
    for (const workloads::WorkloadInfo &w : workloads::all()) {
        SCOPED_TRACE(w.name);
        prog::Program program = defaultScaleProgram(w);

        SimResult full = run(program, cfg);
        RunOptions so;
        so.engine = Engine::Sampled;
        SimResult sampled = run(program, cfg, so);

        // The estimate covers the whole program, not just the
        // measured windows.
        EXPECT_EQ(sampled.committed, full.committed);
        ASSERT_GT(full.ipc, 0.0);
        double errPct =
            (sampled.ipc - full.ipc) / full.ipc * 100.0;
        EXPECT_LE(std::fabs(errPct), 2.0)
            << "sampled " << sampled.ipc << " vs full " << full.ipc;

        // Error-bar block: enough windows for a meaningful CI, and
        // the manifest invariant ipc == committed/cycles holds.
        EXPECT_TRUE(sampled.sampling.active);
        EXPECT_GT(sampled.sampling.windows, 1u);
        EXPECT_GE(sampled.sampling.ipcCi95, 0.0);
        ASSERT_GT(sampled.cycles, 0u);
        EXPECT_DOUBLE_EQ(sampled.ipc,
                         static_cast<double>(sampled.committed) /
                             static_cast<double>(sampled.cycles));
    }
}

TEST(Sampled, DeterministicAndTraceReplayEquivalent)
{
    // Same plan, same program: two sampled runs are identical, and a
    // sampled run over a recorded trace matches the live-source one
    // (the jittered schedule is seeded deterministically).
    workloads::WorkloadParams p;
    p.scale = workloads::find("li")->defaultScale / 2;
    prog::Program program = workloads::build("li", p);
    const config::MachineConfig cfg = config::decoupledOptimized(3, 2);

    RunOptions so;
    so.engine = Engine::Sampled;
    SimResult a = run(program, cfg, so);
    SimResult b = run(program, cfg, so);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.sampling.windows, b.sampling.windows);
    EXPECT_EQ(a.sampling.detailCycles, b.sampling.detailCycles);

    RunOptions replayOpts = so;
    replayOpts.trace = std::make_shared<const vm::RecordedTrace>(
        vm::RecordedTrace::record(program));
    SimResult c = run(program, cfg, replayOpts);
    EXPECT_EQ(a.cycles, c.cycles);
    EXPECT_EQ(a.committed, c.committed);
    EXPECT_EQ(a.sampling.detailCycles, c.sampling.detailCycles);
}

TEST(Sampled, CapStopsFetchExactlyAndMatchesATraceRecordedToIt)
{
    // A cap that is not a multiple of the fetch width: the detailed
    // phases must stop fetching at it, as a trace recorded to the cap
    // (what sweeps and farm workers replay) stops them.
    const config::MachineConfig cfg = config::decoupledOptimized(3, 2);
    for (const char *name : {"li", "vortex"}) {
        SCOPED_TRACE(name);
        workloads::WorkloadParams p;
        p.scale = workloads::find(name)->defaultScale / 4;
        prog::Program program = workloads::build(name, p);

        RunOptions so;
        so.engine = Engine::Sampled;
        so.maxInsts = 10007;
        SimResult live = run(program, cfg, so);
        EXPECT_EQ(live.committed, so.maxInsts);

        RunOptions fed = so;
        fed.trace = std::make_shared<const vm::RecordedTrace>(
            vm::RecordedTrace::record(program, fetchCap(so)));
        SimResult traced = run(program, cfg, fed);
        EXPECT_EQ(live.cycles, traced.cycles);
        EXPECT_EQ(live.committed, traced.committed);
        EXPECT_DOUBLE_EQ(live.ipc, traced.ipc);
        EXPECT_EQ(live.loads, traced.loads);
        EXPECT_EQ(live.stores, traced.stores);
        EXPECT_EQ(live.localLoads, traced.localLoads);
        EXPECT_EQ(live.localStores, traced.localStores);
        EXPECT_DOUBLE_EQ(live.meanDynFrameWords, traced.meanDynFrameWords);
        EXPECT_DOUBLE_EQ(live.meanStaticFrameWords,
                         traced.meanStaticFrameWords);
        EXPECT_EQ(live.l1Accesses, traced.l1Accesses);
        EXPECT_EQ(live.l1Misses, traced.l1Misses);
        EXPECT_EQ(live.lvcAccesses, traced.lvcAccesses);
        EXPECT_EQ(live.lvcMisses, traced.lvcMisses);
        EXPECT_EQ(live.l2Accesses, traced.l2Accesses);
        EXPECT_EQ(live.memAccesses, traced.memAccesses);
        EXPECT_EQ(live.lsqForwards, traced.lsqForwards);
        EXPECT_EQ(live.lvaqForwards, traced.lvaqForwards);
        EXPECT_EQ(live.lvaqFastForwards, traced.lvaqFastForwards);
        EXPECT_EQ(live.lvaqCombined, traced.lvaqCombined);
        EXPECT_EQ(live.lvaqLoads, traced.lvaqLoads);
        EXPECT_DOUBLE_EQ(live.classifierAccuracy,
                         traced.classifierAccuracy);
        EXPECT_EQ(live.missteered, traced.missteered);
        EXPECT_EQ(live.classified, traced.classified);
        EXPECT_EQ(live.toLvaq, traced.toLvaq);
        EXPECT_EQ(live.sampling.windows, traced.sampling.windows);
        EXPECT_EQ(live.sampling.detailInsts, traced.sampling.detailInsts);
        EXPECT_EQ(live.sampling.detailCycles,
                  traced.sampling.detailCycles);
        EXPECT_DOUBLE_EQ(live.sampling.ipcCi95, traced.sampling.ipcCi95);
    }
}

TEST(PipelineFastForward, StopsAtHaltAndCharacterizesLikeAnExecutor)
{
    workloads::WorkloadParams p;
    p.scale = workloads::find("li")->defaultScale / 8;
    prog::Program program = workloads::build("li", p);

    stats::Group refRoot(nullptr, "");
    vm::StreamStats ref(&refRoot);
    vm::Executor refExec(program);
    while (!refExec.halted())
        ref.record(refExec.step());
    const std::uint64_t total = refExec.instsExecuted();
    ASSERT_GT(total, 1000u);

    // Each config over both sources: the live executor and a replay.
    const vm::RecordedTrace trace = vm::RecordedTrace::record(program);
    const char *const names[] = {"opt32", "rep32", "pred32", "ann32"};
    for (std::size_t c = 0; c < 2 * std::size(names); ++c) {
        const char *name = names[c / 2];
        const bool replay = c % 2 == 1;
        SCOPED_TRACE(std::string(name) + (replay ? " replay" : " live"));
        stats::Group root(nullptr, "");
        vm::Executor exec(program);
        vm::TraceReplay rep(trace);
        vm::InstSource &src = replay ? static_cast<vm::InstSource &>(rep)
                                     : exec;
        cpu::Pipeline pipe(&root, sampledConfig(name), src);

        EXPECT_EQ(pipe.fastForward(0), 0u);
        EXPECT_EQ(pipe.streamStats().instructions.value(), 0u);
        EXPECT_EQ(pipe.fastForward(1000), 1000u);
        EXPECT_EQ(pipe.streamStats().instructions.value(), 1000u);
        // The source stands exactly after the 1000th instruction.
        const vm::DynInst next = src.step();
        EXPECT_EQ(next.seq, 1000u);
        pipe.streamStats().record(next);
        EXPECT_EQ(pipe.fastForward(UINT64_MAX), total - 1001);
        EXPECT_TRUE(src.halted());
        EXPECT_EQ(pipe.fastForward(5), 0u);

        // Time stands still and only the stream statistics count.
        EXPECT_EQ(pipe.now(), 0u);
        EXPECT_EQ(pipe.fetchedCount(), 0u);
        EXPECT_EQ(pipe.hierarchy().l1().accesses.value(), 0u);
        EXPECT_EQ(pipe.hierarchy().l2().accesses.value(), 0u);

        const vm::StreamStats &ss = pipe.streamStats();
        EXPECT_EQ(ss.instructions.value(), ref.instructions.value());
        EXPECT_EQ(ss.loads.value(), ref.loads.value());
        EXPECT_EQ(ss.stores.value(), ref.stores.value());
        EXPECT_EQ(ss.localLoads.value(), ref.localLoads.value());
        EXPECT_EQ(ss.localStores.value(), ref.localStores.value());
        EXPECT_EQ(ss.stackLoads.value(), ref.stackLoads.value());
        EXPECT_EQ(ss.stackStores.value(), ref.stackStores.value());
        EXPECT_EQ(ss.calls.value(), ref.calls.value());
        EXPECT_EQ(ss.returns.value(), ref.returns.value());
        EXPECT_EQ(ss.frameWords.samples(), ref.frameWords.samples());
        EXPECT_DOUBLE_EQ(ss.frameWords.mean(), ref.frameWords.mean());
        EXPECT_EQ(ss.callDepth.samples(), ref.callDepth.samples());
        EXPECT_DOUBLE_EQ(ss.callDepth.mean(), ref.callDepth.mean());
        EXPECT_EQ(ss.staticFrames(), ref.staticFrames());
    }
}

TEST(PipelineFastForward, WarmsTheSteeredAndTheServicingCache)
{
    // A heap load the annotation calls local and a stack store it
    // calls non-local: annotation steering gets both wrong, so each
    // warms the cache it was steered to and then the one that
    // services it. Oracle and replicated steering warm only the
    // latter.
    prog::ProgramBuilder b("missteer");
    const Addr heap = b.dataWord(7);
    const Addr stack = layout::StackBase - 64;
    b.la(isa::reg::t0, heap);
    b.lw(isa::reg::t1, 0, isa::reg::t0, true);
    b.addi(isa::reg::t2, isa::reg::sp, -64);
    b.sw(isa::reg::t1, 0, isa::reg::t2, false);
    b.halt();
    prog::Program program = b.finish();

    struct Case
    {
        const char *cfg;
        bool missteered;
    };
    for (Case c : {Case{"opt32", false}, Case{"rep32", false},
                   Case{"ann32", true}}) {
        SCOPED_TRACE(c.cfg);
        stats::Group root(nullptr, "");
        vm::Executor exec(program);
        cpu::Pipeline pipe(&root, sampledConfig(c.cfg), exec);
        pipe.fastForward(100);
        ASSERT_TRUE(exec.halted());
        mem::Hierarchy &h = pipe.hierarchy();
        EXPECT_TRUE(h.l1().probe(heap));
        EXPECT_TRUE(h.lvc()->probe(stack));
        EXPECT_EQ(h.lvc()->probe(heap), c.missteered);
        EXPECT_EQ(h.l1().probe(stack), c.missteered);
        EXPECT_TRUE(h.l2().probe(heap));
        EXPECT_TRUE(h.l2().probe(stack));
    }
}

TEST(Sampled, RejectsInvalidPlansAndIncompatibleOptions)
{
    setQuiet(true);
    workloads::WorkloadParams p;
    p.scale = 10;
    prog::Program program = workloads::build("li", p);
    const config::MachineConfig cfg = config::baseline(2);

    RunOptions so;
    so.engine = Engine::Sampled;

    RunOptions zeroDetail = so;
    zeroDetail.sampling.detail = 0;
    EXPECT_THROW(run(program, cfg, zeroDetail), ConfigError);

    RunOptions overlong = so;
    overlong.sampling.warmup =
        overlong.sampling.period - overlong.sampling.detail + 1;
    EXPECT_THROW(run(program, cfg, overlong), ConfigError);

    RunOptions warmed = so;
    warmed.warmupInsts = 100;
    EXPECT_THROW(run(program, cfg, warmed), ConfigError);

    RunOptions traced = so;
    traced.tracePath = ::testing::TempDir() + "sampled_reject.trace";
    EXPECT_THROW(run(program, cfg, traced), ConfigError);
    setQuiet(false);
}

TEST(Sampled, EngineNamesRoundTripAndRejectWithSuggestion)
{
    for (Engine e : {Engine::Auto, Engine::Live, Engine::Replay,
                     Engine::Sampled})
        EXPECT_EQ(engineFromName(engineName(e)), e);
    // The retired batched engine stays loadable from old grid specs
    // and spools: it always produced replay's results.
    EXPECT_EQ(engineFromName("batched"), Engine::Replay);

    setQuiet(true);
    try {
        engineFromName("warp-drive");
        FAIL() << "engineFromName should have thrown";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()).find("batched"),
                  std::string::npos)
            << e.what();
    }
    try {
        engineFromName("sampeld");
        FAIL() << "engineFromName should have thrown";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean 'sampled'"),
                  std::string::npos)
            << e.what();
    }
    setQuiet(false);
}
