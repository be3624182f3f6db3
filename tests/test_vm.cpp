/**
 * @file
 * Functional executor tests: memory semantics, arithmetic, control
 * flow, calling convention, DynInst annotations (effective address,
 * oracle stack classification, base-register versions), block fill
 * and skip against step() for both instruction sources, and the
 * StreamStats accumulator.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "prog/builder.hh"
#include "util/log.hh"
#include "vm/executor.hh"
#include "vm/memory.hh"
#include "vm/trace.hh"
#include "workloads/workloads.hh"

using namespace ddsim;
using namespace ddsim::prog;
using namespace ddsim::vm;
namespace reg = ddsim::isa::reg;
using ddsim::isa::OpCode;

TEST(SparseMemory, ByteAndWordRoundTrip)
{
    SparseMemory m;
    m.writeWord(0x1000, 0x11223344);
    EXPECT_EQ(m.readWord(0x1000), 0x11223344u);
    // Little-endian byte order.
    EXPECT_EQ(m.readByte(0x1000), 0x44);
    EXPECT_EQ(m.readByte(0x1003), 0x11);
    m.writeByte(0x1001, 0xff);
    EXPECT_EQ(m.readWord(0x1000), 0x1122ff44u);
}

TEST(SparseMemory, UntouchedMemoryReadsZero)
{
    SparseMemory m;
    EXPECT_EQ(m.readWord(0x7fff0000), 0u);
    EXPECT_EQ(m.readByte(123), 0u);
}

TEST(SparseMemory, DoubleCrossesPageBoundary)
{
    // 4092 straddles into the next page; 4088 is the last offset
    // whose 8 bytes fit in one page (the in-page path).
    const double value = -0x1.23456789abcdep-700;
    std::uint64_t bits;
    std::memcpy(&bits, &value, 8);
    for (Addr offset : {Addr{4092}, Addr{4088}}) {
        SCOPED_TRACE(offset);
        SparseMemory m;
        Addr addr = 0x10000 + offset;
        m.writeDouble(addr, value);
        EXPECT_EQ(m.readDouble(addr), value);
        for (Addr i = 0; i < 8; ++i)
            EXPECT_EQ(m.readByte(addr + i), (bits >> (8 * i)) & 0xff);
        EXPECT_EQ(m.readWord(addr - 4), 0u);
        EXPECT_EQ(m.readWord(addr + 8), 0u);
    }
}

TEST(SparseMemory, CopiesAndAssignmentsShareNoPages)
{
    // Touch pages in several page-cache slots, two of them sharing a
    // slot, so every memory below holds cached page pointers before
    // it is copied or assigned over. A copy that kept a stale slot
    // would write into (or, under ASan, read freed) foreign pages.
    const Addr addrs[] = {0x1000, 0x2000, 0x11000, 0x10000ff8,
                          0x7fff0ffc};
    SparseMemory a;
    for (Addr x : addrs)
        a.writeWord(x, 1);

    SparseMemory b(a);
    for (Addr x : addrs) {
        EXPECT_EQ(b.readWord(x), 1u);
        b.writeWord(x, 2);
        a.writeWord(x + 4, 3);
    }
    for (Addr x : addrs) {
        EXPECT_EQ(a.readWord(x), 1u);
        EXPECT_EQ(b.readWord(x), 2u);
        EXPECT_EQ(a.readWord(x + 4), 3u);
        EXPECT_EQ(b.readWord(x + 4), 0u);
    }

    SparseMemory c;
    for (Addr x : addrs)
        c.writeWord(x, 4);
    {
        SparseMemory source(b);
        source.readWord(0x3000);
        c = source;
        for (Addr x : addrs)
            source.writeWord(x, 5);
    } // source's pages are freed here
    for (Addr x : addrs) {
        EXPECT_EQ(c.readWord(x), 2u);
        c.writeWord(x, 6);
        EXPECT_EQ(b.readWord(x), 2u);
        EXPECT_EQ(a.readWord(x), 1u);
    }
    EXPECT_EQ(c.pagesAllocated(), b.pagesAllocated() + 1);
}

TEST(SparseMemory, UnalignedWordIsFatal)
{
    setQuiet(true);
    SparseMemory m;
    EXPECT_THROW(m.readWord(0x1001), FatalError);
    EXPECT_THROW(m.writeWord(0x1002, 1), FatalError);
}

TEST(SparseMemory, SparseAllocation)
{
    SparseMemory m;
    m.writeByte(0, 1);
    m.writeByte(0x7000'0000, 1);
    EXPECT_EQ(m.pagesAllocated(), 2u);
}

namespace {

/** Build, run to halt and return the executor. */
std::unique_ptr<Executor>
runProgram(Program &p, std::uint64_t maxInsts = 100000)
{
    auto exec = std::make_unique<Executor>(p);
    exec->run(maxInsts);
    EXPECT_TRUE(exec->halted()) << "program did not halt";
    return exec;
}

} // namespace

TEST(Executor, ArithmeticBasics)
{
    ProgramBuilder b("t");
    b.li(reg::t0, 21);
    b.li(reg::t1, 2);
    b.mul(reg::t2, reg::t0, reg::t1);
    b.print(reg::t2);            // 42
    b.sub(reg::t3, reg::t0, reg::t1);
    b.print(reg::t3);            // 19
    b.div(reg::t4, reg::t0, reg::t1);
    b.print(reg::t4);            // 10
    b.li(reg::t5, -7);
    b.sra(reg::t6, reg::t5, 1);
    b.print(reg::t6);            // -4 (arithmetic shift)
    b.halt();
    Program p = b.finish();
    auto exec = runProgram(p);
    ASSERT_EQ(exec->printed().size(), 4u);
    EXPECT_EQ(exec->printed()[0], 42u);
    EXPECT_EQ(exec->printed()[1], 19u);
    EXPECT_EQ(exec->printed()[2], 10u);
    EXPECT_EQ(static_cast<SWord>(exec->printed()[3]), -4);
}

TEST(Executor, DivByZeroIsZero)
{
    ProgramBuilder b("t");
    b.li(reg::t0, 5);
    b.div(reg::t1, reg::t0, reg::zero);
    b.print(reg::t1);
    b.halt();
    Program p = b.finish();
    auto exec = runProgram(p);
    EXPECT_EQ(exec->printed()[0], 0u);
}

TEST(Executor, ZeroRegisterIsImmutable)
{
    ProgramBuilder b("t");
    b.addi(reg::zero, reg::zero, 99);
    b.print(reg::zero);
    b.halt();
    Program p = b.finish();
    auto exec = runProgram(p);
    EXPECT_EQ(exec->printed()[0], 0u);
}

TEST(Executor, LiLargeAndNegativeValues)
{
    ProgramBuilder b("t");
    b.li(reg::t0, 0x12345678);
    b.print(reg::t0);
    b.li(reg::t1, -100000);
    b.print(reg::t1);
    b.halt();
    Program p = b.finish();
    auto exec = runProgram(p);
    EXPECT_EQ(exec->printed()[0], 0x12345678u);
    EXPECT_EQ(static_cast<SWord>(exec->printed()[1]), -100000);
}

TEST(Executor, LoadStoreBytesAndWords)
{
    ProgramBuilder b("t");
    Addr buf = b.dataWords(2);
    b.la(reg::t0, buf);
    b.li(reg::t1, -2);             // 0xfffffffe
    b.sw(reg::t1, 0, reg::t0);
    b.lb(reg::t2, 0, reg::t0);     // sign-extended 0xfe -> -2
    b.print(reg::t2);
    b.lbu(reg::t3, 0, reg::t0);    // zero-extended -> 254
    b.print(reg::t3);
    b.li(reg::t4, 0xab);
    b.sb(reg::t4, 5, reg::t0);     // second word, byte 1
    b.lw(reg::t5, 4, reg::t0);
    b.print(reg::t5);
    b.halt();
    Program p = b.finish();
    auto exec = runProgram(p);
    EXPECT_EQ(static_cast<SWord>(exec->printed()[0]), -2);
    EXPECT_EQ(exec->printed()[1], 254u);
    EXPECT_EQ(exec->printed()[2], 0xab00u);
}

TEST(Executor, FloatingPoint)
{
    ProgramBuilder b("t");
    Addr d = b.dataDouble(2.5);
    b.la(reg::t0, d);
    b.ld(1, 0, reg::t0);
    b.li(reg::t1, 4);
    b.cvtDW(2, reg::t1);          // f2 = 4.0
    b.mulD(3, 1, 2);              // 10.0
    b.addD(3, 3, 2);              // 14.0
    b.divD(4, 3, 2);              // 3.5
    b.cvtWD(reg::t2, 4);          // 3
    b.print(reg::t2);
    b.cLtD(reg::t3, 2, 3);        // 4.0 < 14.0 -> 1
    b.print(reg::t3);
    b.negD(5, 4);
    b.cvtWD(reg::t4, 5);          // -3
    b.print(reg::t4);
    b.halt();
    Program p = b.finish();
    auto exec = runProgram(p);
    EXPECT_EQ(exec->printed()[0], 3u);
    EXPECT_EQ(exec->printed()[1], 1u);
    EXPECT_EQ(static_cast<SWord>(exec->printed()[2]),
              -3);
}

TEST(Executor, FibonacciLoop)
{
    ProgramBuilder b("t");
    b.li(reg::t0, 0);   // fib(0)
    b.li(reg::t1, 1);   // fib(1)
    b.li(reg::t2, 10);  // count
    Label loop = b.here();
    b.add(reg::t3, reg::t0, reg::t1);
    b.move(reg::t0, reg::t1);
    b.move(reg::t1, reg::t3);
    b.addi(reg::t2, reg::t2, -1);
    b.bgtz(reg::t2, loop);
    b.print(reg::t1);   // fib(11) = 89
    b.halt();
    Program p = b.finish();
    auto exec = runProgram(p);
    EXPECT_EQ(exec->printed()[0], 89u);
}

TEST(Executor, RecursiveFactorialWithFrames)
{
    ProgramBuilder b("t");
    Label main = b.newLabel("main");
    Label fact = b.newLabel("fact");

    b.bind(main);
    b.li(reg::a0, 6);
    b.jal(fact);
    b.print(reg::v0);     // 720
    b.halt();

    b.bind(fact);
    Label rec = b.newLabel();
    b.bgtz(reg::a0, rec);
    b.li(reg::v0, 1);
    b.ret();
    b.bind(rec);
    FrameSpec f;
    f.localWords = 1;
    f.savedRegs = {reg::s0};
    b.prologue(f);
    b.move(reg::s0, reg::a0);
    b.addi(reg::a0, reg::a0, -1);
    b.jal(fact);
    b.mul(reg::v0, reg::v0, reg::s0);
    b.epilogue(f);

    Program p = b.finish();
    p.setEntry(p.symbol("main"));
    auto exec = runProgram(p);
    EXPECT_EQ(exec->printed()[0], 720u);
}

TEST(Executor, ReturnFromMainHalts)
{
    // A program whose entry returns via the sentinel ra.
    ProgramBuilder b("t");
    b.li(reg::v0, 5);
    b.ret();
    Program p = b.finish();
    auto exec = runProgram(p);
    EXPECT_TRUE(exec->halted());
    EXPECT_EQ(exec->gpr(reg::v0), 5u);
}

TEST(Executor, DynInstMemAnnotations)
{
    ProgramBuilder b("t");
    b.addi(reg::sp, reg::sp, -16);
    b.sw(reg::t0, 4, reg::sp, true);  // stack store, marked local
    Addr g = b.dataWord(7);
    b.la(reg::t1, g);
    b.lw(reg::t2, 0, reg::t1);        // global load
    b.halt();
    Program p = b.finish();
    Executor exec(p);

    DynInst adj = exec.step();
    EXPECT_EQ(frameAllocBytes(adj.inst), 16u);

    DynInst st = exec.step();
    EXPECT_TRUE(st.isStore());
    EXPECT_EQ(st.effAddr, layout::StackBase - 16 + 4);
    EXPECT_TRUE(st.stackAccess);
    EXPECT_TRUE(st.inst.localHint);
    EXPECT_EQ(st.accessSize, 4);

    // Skip over the la expansion (1 or 2 instructions) to the load.
    DynInst ld{};
    bool foundLoad = false;
    while (!exec.halted()) {
        ld = exec.step();
        if (ld.isLoad()) {
            foundLoad = true;
            break;
        }
    }
    ASSERT_TRUE(foundLoad);
    EXPECT_TRUE(ld.isLoad());
    EXPECT_EQ(ld.effAddr, g);
    EXPECT_FALSE(ld.stackAccess);
    EXPECT_FALSE(ld.inst.localHint);
}

TEST(Executor, BaseVersionTracksSpWrites)
{
    ProgramBuilder b("t");
    b.sw(reg::t0, 0, reg::sp, true);   // version A
    b.sw(reg::t0, 4, reg::sp, true);   // version A
    b.addi(reg::sp, reg::sp, -8);      // sp changes
    b.sw(reg::t0, 0, reg::sp, true);   // version B
    b.halt();
    Program p = b.finish();
    Executor exec(p);
    DynInst s1 = exec.step();
    DynInst s2 = exec.step();
    exec.step();
    DynInst s3 = exec.step();
    EXPECT_EQ(s1.baseVersion, s2.baseVersion);
    EXPECT_NE(s2.baseVersion, s3.baseVersion);
}

TEST(Executor, StepAfterHaltPanics)
{
    setQuiet(true);
    ProgramBuilder b("t");
    b.halt();
    Program p = b.finish();
    Executor exec(p);
    exec.step();
    EXPECT_TRUE(exec.halted());
    EXPECT_THROW(exec.step(), PanicError);
}

TEST(Executor, DeterministicExecution)
{
    ProgramBuilder b("t");
    b.li(reg::t0, 1000);
    Label loop = b.here();
    b.addi(reg::t0, reg::t0, -1);
    b.bgtz(reg::t0, loop);
    b.halt();
    Program p = b.finish();

    Executor e1(p), e2(p);
    while (!e1.halted()) {
        DynInst a = e1.step();
        DynInst bi = e2.step();
        EXPECT_EQ(a.pcIdx, bi.pcIdx);
        EXPECT_EQ(a.effAddr, bi.effAddr);
    }
    EXPECT_TRUE(e2.halted());
    EXPECT_EQ(e1.instsExecuted(), e2.instsExecuted());
}

namespace {

void
expectSameRecord(const DynInst &a, const DynInst &b)
{
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.pcIdx, b.pcIdx);
    EXPECT_EQ(a.inst, b.inst);
    EXPECT_EQ(a.effAddr, b.effAddr);
    EXPECT_EQ(a.accessSize, b.accessSize);
    EXPECT_EQ(a.stackAccess, b.stackAccess);
    EXPECT_EQ(a.baseVersion, b.baseVersion);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.nextPcIdx, b.nextPcIdx);
}

/** A record with every field set to a value no real one carries. */
DynInst
garbageRecord()
{
    DynInst g;
    g.seq = ~InstSeq{0};
    g.pcIdx = 0xdeadbeef;
    g.inst.op = OpCode::HALT;
    g.inst.rd = g.inst.rs = g.inst.rt = 77;
    g.inst.imm = -12345;
    g.inst.target = 0xdeadbeef;
    g.inst.localHint = true;
    g.effAddr = 0xdeadbeef;
    g.accessSize = 99;
    g.stackAccess = true;
    g.baseVersion = 0xdeadbeef;
    g.taken = true;
    g.nextPcIdx = 0xdeadbeef;
    return g;
}

/**
 * Drain two sources built by @p make, one with step() and one with
 * fill() in blocks of varied size (including 0) into buffers full of
 * garbage, and expect the same records field for field. The last
 * fill asks past the end; the fill before it ends exactly at halt.
 */
template <class Make>
void
expectFillMatchesStep(Make make)
{
    auto stepper = make();
    std::vector<DynInst> want;
    while (!stepper->halted())
        want.push_back(stepper->step());
    ASSERT_GT(want.size(), 100u);

    auto filler = make();
    const std::size_t blocks[] = {0, 1, 16, 3, 0, 7, 13};
    std::vector<DynInst> buf;
    std::size_t got = 0;
    for (std::size_t i = 0; got + 16 < want.size(); ++i) {
        std::size_t n = blocks[i % std::size(blocks)];
        buf.assign(n + 1, garbageRecord());
        ASSERT_EQ(filler->fill(buf.data(), n), n);
        for (std::size_t k = 0; k < n; ++k)
            expectSameRecord(buf[k], want[got + k]);
        EXPECT_EQ(buf[n].seq, ~InstSeq{0}) << "wrote past n";
        got += n;
        EXPECT_FALSE(filler->halted());
    }

    // A fill that ends exactly at halt, then fills past the end.
    std::size_t left = want.size() - got;
    buf.assign(left, garbageRecord());
    ASSERT_EQ(filler->fill(buf.data(), left), left);
    for (std::size_t k = 0; k < left; ++k)
        expectSameRecord(buf[k], want[got + k]);
    EXPECT_TRUE(filler->halted());
    buf.assign(4, garbageRecord());
    EXPECT_EQ(filler->fill(buf.data(), 4), 0u);
    EXPECT_EQ(filler->fill(buf.data(), 0), 0u);

    // A fill asked for more than is left returns what is left.
    auto past = make();
    buf.assign(want.size() + 5, garbageRecord());
    ASSERT_EQ(past->fill(buf.data(), buf.size()), want.size());
    for (std::size_t k = 0; k < want.size(); ++k)
        expectSameRecord(buf[k], want[k]);
    EXPECT_TRUE(past->halted());
}

/** One event a SkipSink saw, or one that a stepped record implies. */
struct SkipEvent
{
    bool access = false;        ///< Else a call, return, jump or frame.
    std::uint32_t pcIdx = 0;
    isa::Inst inst;
    Addr addr = 0;
    bool store = false;
    bool stack = false;
    std::uint32_t nextPcIdx = 0;

    bool operator==(const SkipEvent &) const = default;
};

class RecordingSink final : public SkipSink
{
  public:
    void
    access(std::uint32_t pcIdx, const isa::Inst &inst, Addr addr,
           bool store, bool stack) override
    {
        events.push_back({true, pcIdx, inst, addr, store, stack, 0});
    }

    void
    control(const isa::Inst &inst, std::uint32_t nextPcIdx) override
    {
        events.push_back({false, 0, inst, 0, false, false, nextPcIdx});
    }

    std::vector<SkipEvent> events;
};

/**
 * Skip @p n instructions of @p src and expect the sink to see exactly
 * the events records want[at, at + n) imply: each load or store, and
 * each unconditional jump or frame allocation.
 */
template <class Source>
void
expectSkip(Source &src, std::uint64_t n, const std::vector<DynInst> &want,
           std::size_t at)
{
    std::vector<SkipEvent> implied;
    for (std::size_t k = at; k < at + n; ++k) {
        const DynInst &di = want[k];
        if (di.isMem())
            implied.push_back({true, di.pcIdx, di.inst, di.effAddr,
                               di.isStore(), di.stackAccess, 0});
        else if (isa::isUncondJump(di.inst.op) ||
                 frameAllocBytes(di.inst) != 0)
            implied.push_back(
                {false, 0, di.inst, 0, false, false, di.nextPcIdx});
    }
    RecordingSink sink;
    ASSERT_EQ(src.skip(n, sink), n);
    ASSERT_EQ(sink.events.size(), implied.size());
    for (std::size_t i = 0; i < implied.size(); ++i)
        EXPECT_TRUE(sink.events[i] == implied[i])
            << "event " << i << " of a skip of " << n << " at " << at;
}

/**
 * Drain a source built by @p make with skips of varied size
 * (including 0 and 1), each followed by stepped records that must
 * equal a pure stepper's field for field, seq and baseVersion
 * included. Then a skip that ends exactly at halt, skips past the
 * end, and a fresh source skipped past its end in one call.
 */
template <class Make>
void
expectSkipMatchesStep(Make make)
{
    auto stepper = make();
    std::vector<DynInst> want;
    while (!stepper->halted())
        want.push_back(stepper->step());
    ASSERT_GT(want.size(), 1000u);

    auto skipper = make();
    const std::uint64_t skips[] = {0, 1, 257, 3, 0, 64, 1, 1000};
    std::size_t at = 0;
    for (std::size_t i = 0; at + 1000 + 16 < want.size(); ++i) {
        std::uint64_t n = skips[i % std::size(skips)];
        expectSkip(*skipper, n, want, at);
        at += n;
        for (int k = 0; k < 16; ++k)
            expectSameRecord(skipper->step(), want[at++]);
        EXPECT_FALSE(skipper->halted());
    }

    // A skip that ends exactly at halt, then skips past the end.
    expectSkip(*skipper, want.size() - at, want, at);
    EXPECT_TRUE(skipper->halted());
    RecordingSink none;
    EXPECT_EQ(skipper->skip(4, none), 0u);
    EXPECT_EQ(skipper->skip(0, none), 0u);
    EXPECT_TRUE(none.events.empty());

    // A skip asked for more than is left executes what is left.
    auto past = make();
    RecordingSink all;
    ASSERT_EQ(past->skip(want.size() + 5, all), want.size());
    EXPECT_TRUE(past->halted());
    auto again = make();
    expectSkip(*again, want.size(), want, 0);
    EXPECT_TRUE(again->halted());
}

Program
fillProgram()
{
    workloads::WorkloadParams p;
    p.scale = workloads::find("li")->defaultScale / 16;
    return workloads::build("li", p);
}

} // namespace

TEST(InstSource, ExecutorFillEqualsStep)
{
    Program p = fillProgram();
    expectFillMatchesStep([&] { return std::make_unique<Executor>(p); });
}

TEST(InstSource, TraceReplayFillEqualsStep)
{
    Program p = fillProgram();
    const RecordedTrace trace = RecordedTrace::record(p);
    expectFillMatchesStep(
        [&] { return std::make_unique<TraceReplay>(trace); });
}

TEST(InstSource, ExecutorSkipEqualsStep)
{
    Program p = fillProgram();
    expectSkipMatchesStep([&] { return std::make_unique<Executor>(p); });

    // The architectural state a skip leaves equals the stepper's.
    Executor stepped(p), skipped(p);
    RecordingSink sink;
    for (std::uint64_t n : {0u, 1u, 700u, 5000u}) {
        for (std::uint64_t k = 0; k < n; ++k)
            stepped.step();
        ASSERT_EQ(skipped.skip(n, sink), n);
        EXPECT_EQ(skipped.instsExecuted(), stepped.instsExecuted());
        EXPECT_EQ(skipped.pcIndex(), stepped.pcIndex());
        EXPECT_EQ(skipped.stackLowWater(), stepped.stackLowWater());
        EXPECT_EQ(skipped.printed(), stepped.printed());
        for (RegId r = 0; r < NumGprs; ++r)
            EXPECT_EQ(skipped.gpr(r), stepped.gpr(r)) << "r" << int(r);
    }
    EXPECT_LT(skipped.stackLowWater(), layout::StackBase);
    skipped.skip(UINT64_MAX, sink);
    while (!stepped.halted())
        stepped.step();
    EXPECT_EQ(skipped.instsExecuted(), stepped.instsExecuted());
    EXPECT_EQ(skipped.printed(), stepped.printed());
}

TEST(InstSource, TraceReplaySkipEqualsStep)
{
    Program p = fillProgram();
    const RecordedTrace trace = RecordedTrace::record(p);
    expectSkipMatchesStep(
        [&] { return std::make_unique<TraceReplay>(trace); });
}

TEST(StreamStats, CountsMixAndFrames)
{
    ProgramBuilder b("t");
    Label main = b.newLabel("main");
    Label fn = b.newLabel("fn");
    b.bind(main);
    b.jal(fn);
    b.jal(fn);
    b.halt();
    b.bind(fn);
    FrameSpec f;
    f.localWords = 3;
    f.savedRegs = {reg::s0};
    b.prologue(f);       // 1 alloc of 5 words + 2 local stores
    b.loadLocal(reg::t0, 0);
    b.epilogue(f);
    Program p = b.finish();
    p.setEntry(p.symbol("main"));

    Executor exec(p);
    stats::Group root(nullptr, "");
    StreamStats ss(&root);
    while (!exec.halted())
        ss.record(exec.step());

    EXPECT_EQ(ss.calls.value(), 2u);
    EXPECT_EQ(ss.returns.value(), 2u);
    EXPECT_EQ(ss.frameWords.samples(), 2u);
    EXPECT_DOUBLE_EQ(ss.frameWords.mean(), 5.0);
    EXPECT_EQ(ss.localStores.value(), 4u);  // 2 saves x 2 calls
    EXPECT_EQ(ss.localLoads.value(), 6u);   // (1 + 2 restores) x 2
    EXPECT_DOUBLE_EQ(ss.meanStaticFrameWords(), 5.0);
    EXPECT_EQ(ss.staticFrames().size(), 1u);
    EXPECT_DOUBLE_EQ(ss.localLoadFrac(), 1.0);
    EXPECT_DOUBLE_EQ(ss.localStoreFrac(), 1.0);
}
