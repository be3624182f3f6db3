/**
 * @file
 * Pipeline tests on hand-analysable kernels: completion/commit
 * correctness, IPC behaviour of dependency chains vs independent
 * streams, width limits, FU contention, memory latency visibility,
 * store forwarding, and dispatch-stall accounting.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "config/presets.hh"
#include "cpu/event_ring.hh"
#include "cpu/pipeline.hh"
#include "prog/builder.hh"
#include "stats/group.hh"
#include "util/error.hh"
#include "util/log.hh"
#include "vm/executor.hh"

using namespace ddsim;
using namespace ddsim::prog;
namespace reg = ddsim::isa::reg;

namespace {

struct Run
{
    std::uint64_t cycles;
    std::uint64_t committed;
    double ipc;
};

Run
simulate(Program &p, const config::MachineConfig &cfg)
{
    stats::Group root(nullptr, "");
    vm::Executor exec(p);
    cpu::Pipeline pipe(&root, cfg, exec);
    pipe.run();
    return {pipe.numCycles.value(), pipe.committedInsts.value(),
            pipe.ipc()};
}

/** N independent adds then halt. */
Program
independentAdds(int n)
{
    ProgramBuilder b("indep");
    for (int i = 0; i < n; ++i)
        b.addi(static_cast<RegId>(reg::t0 + (i % 8)), reg::zero, i);
    b.halt();
    return b.finish();
}

/** N dependent adds (a chain) then halt. */
Program
dependentChain(int n)
{
    ProgramBuilder b("chain");
    b.li(reg::t0, 0);
    for (int i = 0; i < n; ++i)
        b.addi(reg::t0, reg::t0, 1);
    b.halt();
    return b.finish();
}

} // namespace

TEST(Pipeline, CommitsEveryInstructionExactlyOnce)
{
    Program p = independentAdds(100);
    auto r = simulate(p, config::baseline(2));
    EXPECT_EQ(r.committed, 101u); // 100 adds + halt
}

TEST(Pipeline, DependentChainRunsNearIpcOne)
{
    // A 1-latency dependency chain issues one op per cycle.
    Program p = dependentChain(400);
    auto r = simulate(p, config::baseline(2));
    EXPECT_GT(r.ipc, 0.85);
    EXPECT_LT(r.ipc, 1.15);
}

TEST(Pipeline, IndependentOpsExploitWidth)
{
    Program p = independentAdds(800);
    auto r = simulate(p, config::baseline(4));
    // 16-wide machine, 16 int ALUs: should sustain far more than 4.
    EXPECT_GT(r.ipc, 8.0);
}

TEST(Pipeline, NarrowMachineCapsIpc)
{
    Program p = independentAdds(800);
    config::MachineConfig cfg = config::baseline(2);
    cfg.fetchWidth = cfg.issueWidth = cfg.commitWidth = 2;
    auto r = simulate(p, cfg);
    EXPECT_LE(r.ipc, 2.05);
    EXPECT_GT(r.ipc, 1.5);
}

TEST(Pipeline, MulDivLatencyVisible)
{
    // A chain of dependent multiplies: ~5 cycles each.
    ProgramBuilder b("muls");
    b.li(reg::t0, 1);
    for (int i = 0; i < 100; ++i)
        b.mul(reg::t0, reg::t0, reg::t0);
    b.halt();
    Program p = b.finish();
    auto r = simulate(p, config::baseline(2));
    EXPECT_GT(r.cycles, 480u);
}

TEST(Pipeline, UnpipelinedDivSerializes)
{
    // Independent divides, but only 4 unpipelined div units:
    // 100 divides * 34 cycles / 4 units ~ 850 cycles minimum.
    ProgramBuilder b("divs");
    b.li(reg::t0, 100);
    b.li(reg::t1, 7);
    for (int i = 0; i < 100; ++i)
        b.div(static_cast<RegId>(reg::t2 + (i % 4)), reg::t0, reg::t1);
    b.halt();
    Program p = b.finish();
    auto r = simulate(p, config::baseline(2));
    EXPECT_GT(r.cycles, 800u);
}

TEST(Pipeline, LoadLatencyVisibleInChain)
{
    // Pointer-chase style: each load feeds the next address.
    ProgramBuilder b("chase");
    Addr table = b.dataWords(64);
    b.la(reg::t0, table);
    for (int i = 0; i < 50; ++i) {
        b.lw(reg::t1, 0, reg::t0);      // always loads 0
        b.add(reg::t0, reg::t0, reg::t1);
        b.addi(reg::t0, reg::t0, 4);
        b.addi(reg::t0, reg::t0, -4);
    }
    b.halt();
    Program p = b.finish();
    auto r = simulate(p, config::baseline(4));
    // Each iteration: >= 1 (agen) + 2 (L1 hit) + deps ~ 5+ cycles.
    EXPECT_GT(r.cycles, 250u);
}

TEST(Pipeline, StoreLoadForwardingWorks)
{
    ProgramBuilder b("fwd");
    b.addi(reg::sp, reg::sp, -16);
    b.li(reg::t0, 42);
    for (int i = 0; i < 50; ++i) {
        b.sw(reg::t0, 0, reg::sp);
        b.lw(reg::t1, 0, reg::sp);
    }
    b.halt();
    Program p = b.finish();

    stats::Group root(nullptr, "");
    vm::Executor exec(p);
    cpu::Pipeline pipe(&root, config::baseline(2), exec);
    pipe.run();
    EXPECT_GT(pipe.lsq().loadsForwarded.value(), 30u);
}

TEST(Pipeline, RobFullStallsAccounted)
{
    // A long-latency head (many dependent divides) with a large body
    // of independent work behind it fills the ROB.
    ProgramBuilder b("robfull");
    b.li(reg::t0, 9);
    for (int i = 0; i < 8; ++i)
        b.div(reg::t0, reg::t0, reg::t0);
    for (int i = 0; i < 400; ++i)
        b.addi(static_cast<RegId>(reg::t1 + (i % 4)), reg::zero, 1);
    b.halt();
    Program p = b.finish();

    stats::Group root(nullptr, "");
    vm::Executor exec(p);
    config::MachineConfig cfg = config::baseline(2);
    cfg.robSize = 32;
    cpu::Pipeline pipe(&root, cfg, exec);
    pipe.run();
    EXPECT_GT(pipe.robFullStalls.value(), 0u);
}

TEST(Pipeline, PortsLimitMemoryThroughput)
{
    // A burst of independent loads: ports bound the rate.
    ProgramBuilder b("ports");
    Addr buf = b.dataWords(512);
    b.la(reg::t0, buf);
    for (int i = 0; i < 256; ++i)
        b.lw(static_cast<RegId>(reg::t1 + (i % 4)), (i % 64) * 4,
             reg::t0);
    b.halt();
    Program p = b.finish();

    auto one = simulate(p, config::baseline(1));
    auto four = simulate(p, config::baseline(4));
    // With 1 port, >= 256 cycles just for cache accesses.
    EXPECT_GT(one.cycles, 250u);
    EXPECT_LT(four.cycles * 2, one.cycles);
}

TEST(Pipeline, CommitWidthBoundsIpc)
{
    Program p = independentAdds(1000);
    config::MachineConfig cfg = config::baseline(4);
    cfg.commitWidth = 4;
    auto r = simulate(p, cfg);
    EXPECT_LE(r.ipc, 4.05);
}

TEST(Pipeline, BranchesExecuteWithPerfectPrediction)
{
    // A tight loop: with a perfect front end the branch costs only
    // its ALU slot.
    ProgramBuilder b("loop");
    b.li(reg::t0, 200);
    Label top = b.here();
    b.addi(reg::t0, reg::t0, -1);
    b.bgtz(reg::t0, top);
    b.halt();
    Program p = b.finish();
    auto r = simulate(p, config::baseline(2));
    EXPECT_EQ(r.committed, 402u);
    // The chain on t0 limits to ~1 iteration (2 insts) per cycle.
    EXPECT_GT(r.ipc, 1.4);
}

TEST(Pipeline, FunctionCallsRunCorrectly)
{
    ProgramBuilder b("calls");
    Label main = b.newLabel("main");
    Label fn = b.newLabel("fn");
    b.bind(main);
    b.li(reg::s0, 20);
    b.li(reg::s1, 0);
    Label loop = b.here();
    b.move(reg::a0, reg::s0);
    b.jal(fn);
    b.add(reg::s1, reg::s1, reg::v0);
    b.addi(reg::s0, reg::s0, -1);
    b.bgtz(reg::s0, loop);
    b.print(reg::s1);
    b.halt();
    b.bind(fn);
    FrameSpec f;
    f.localWords = 2;
    f.savedRegs = {reg::s0};
    b.prologue(f);
    b.storeLocal(reg::a0, 0);
    b.loadLocal(reg::v0, 0);
    b.sll(reg::v0, reg::v0, 1);
    b.epilogue(f);
    Program p = b.finish();
    p.setEntry(p.symbol("main"));

    stats::Group root(nullptr, "");
    vm::Executor exec(p);
    cpu::Pipeline pipe(&root, config::baseline(2), exec);
    pipe.run();
    // sum of 2*k for k=1..20 = 420.
    ASSERT_EQ(exec.printed().size(), 1u);
    EXPECT_EQ(exec.printed()[0], 420u);
    EXPECT_TRUE(pipe.done());
}

TEST(Pipeline, MaxInstsLimitsFetch)
{
    Program p = dependentChain(1000);
    stats::Group root(nullptr, "");
    vm::Executor exec(p);
    cpu::Pipeline pipe(&root, config::baseline(2), exec);
    pipe.run(100);
    EXPECT_EQ(pipe.committedInsts.value(), 100u);
    EXPECT_TRUE(pipe.done());
}

TEST(Pipeline, TraceListsEveryCommittedInstruction)
{
    Program p = dependentChain(20);
    stats::Group root(nullptr, "");
    vm::Executor exec(p);
    cpu::Pipeline pipe(&root, config::baseline(2), exec);
    std::ostringstream trace;
    pipe.setTrace(&trace);
    pipe.run();
    std::string out = trace.str();
    // One line per committed instruction.
    std::size_t lines = 0;
    for (char c : out) {
        if (c == '\n')
            ++lines;
    }
    EXPECT_EQ(lines, pipe.committedInsts.value());
    EXPECT_NE(out.find("addi t0, t0, 1"), std::string::npos);
    EXPECT_NE(out.find("halt"), std::string::npos);
}

TEST(Pipeline, TraceShowsQueuePlacement)
{
    ProgramBuilder b("t");
    b.sw(reg::t0, -4, reg::sp, true);
    Addr g = b.dataWord(0);
    b.la(reg::t1, g);
    b.lw(reg::t2, 0, reg::t1);
    b.halt();
    Program p = b.finish();

    stats::Group root(nullptr, "");
    vm::Executor exec(p);
    cpu::Pipeline pipe(&root, config::decoupled(2, 2), exec);
    std::ostringstream trace;
    pipe.setTrace(&trace);
    pipe.run();
    std::string out = trace.str();
    EXPECT_NE(out.find("[lvaq]"), std::string::npos);
    EXPECT_NE(out.find("[lsq]"), std::string::npos);
}

TEST(Pipeline, LvaqFullStallsAccounted)
{
    // A burst of local stores whose data depends on a long divide
    // chain: the LVAQ fills while the divides crawl.
    ProgramBuilder b("lvaqfull");
    b.addi(reg::sp, reg::sp, -128);
    b.li(reg::t0, 9);
    for (int i = 0; i < 6; ++i)
        b.div(reg::t0, reg::t0, reg::t0);
    for (int i = 0; i < 60; ++i)
        b.sw(reg::t0, (i % 32) * 4, reg::sp, true);
    b.halt();
    Program p = b.finish();

    stats::Group root(nullptr, "");
    vm::Executor exec(p);
    config::MachineConfig cfg = config::decoupled(2, 2);
    cfg.lvaqSize = 8;
    cfg.robSize = 256; // don't let the ROB stall first
    cpu::Pipeline pipe(&root, cfg, exec);
    pipe.run();
    EXPECT_GT(pipe.lvaqFullStalls.value(), 0u);
}

TEST(Pipeline, CyclesMatchBetweenRuns)
{
    Program p = dependentChain(300);
    auto a = simulate(p, config::baseline(2));
    auto b2 = simulate(p, config::baseline(2));
    EXPECT_EQ(a.cycles, b2.cycles);
    EXPECT_EQ(a.committed, b2.committed);
}

// ---- EventRing: the wakeup wheel, one link per ROB slot.

TEST(EventRing, EventsBeyondTheWheelFireAtTheirCycle)
{
    cpu::EventRing ring(8);
    ring.push(5, 1, 10);
    ring.push(255, 2, 20);  // the wheel's last cycle
    ring.push(256, 3, 30);  // one past it
    ring.push(1000, 4, 40); // far beyond it
    std::vector<std::pair<Cycle, int>> fired;
    // Drain every cycle, as the pipeline's issue stage does.
    for (Cycle now = 0; now <= 1000; ++now)
        ring.drainUpTo(now, [&](int idx, InstSeq seq) {
            EXPECT_EQ(seq, static_cast<InstSeq>(idx) * 10);
            fired.emplace_back(now, idx);
        });
    std::vector<std::pair<Cycle, int>> want = {
        {5, 1}, {255, 2}, {256, 3}, {1000, 4}};
    EXPECT_EQ(fired, want);
}

TEST(EventRing, SecondPendingEventOnASlotPanics)
{
    setQuiet(true);
    cpu::EventRing ring(4);
    ring.push(10, 2, 1);
    EXPECT_THROW(ring.push(20, 2, 5), PanicError);
    ring.push(5000, 1, 3); // far events are pending too
    EXPECT_THROW(ring.push(6, 1, 4), PanicError);
    // A drained slot takes its next instruction's event.
    int fired = 0;
    ring.drainUpTo(10, [&](int idx, InstSeq) {
        EXPECT_EQ(idx, 2);
        ++fired;
    });
    EXPECT_EQ(fired, 1);
    EXPECT_NO_THROW(ring.push(11, 2, 6));
}
