/**
 * @file
 * ProgramBuilder tests: label fixups, pseudo-instructions, frame
 * prologue/epilogue shape, and data segment management.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "isa/disasm.hh"
#include "prog/builder.hh"
#include "util/log.hh"

using namespace ddsim;
using namespace ddsim::prog;
using namespace ddsim::isa;
namespace reg = ddsim::isa::reg;

TEST(Builder, ForwardBranchFixup)
{
    ProgramBuilder b("t");
    Label target = b.newLabel();
    b.beq(reg::t0, reg::t1, target); // idx 0
    b.nop();                         // idx 1
    b.bind(target);                  // idx 2
    b.halt();
    Program p = b.finish();
    Inst br = p.fetch(0);
    EXPECT_EQ(br.op, OpCode::BEQ);
    // target = pc + 1 + imm -> 2 = 0 + 1 + imm -> imm = 1.
    EXPECT_EQ(br.imm, 1);
}

TEST(Builder, BackwardBranchFixup)
{
    ProgramBuilder b("t");
    Label top = b.here();
    b.nop();
    b.bne(reg::t0, reg::zero, top); // idx 1 -> target 0: imm = -2
    b.halt();
    Program p = b.finish();
    EXPECT_EQ(p.fetch(1).imm, -2);
}

TEST(Builder, JumpTargetsAreAbsolute)
{
    ProgramBuilder b("t");
    Label fn = b.newLabel("fn");
    b.jal(fn);  // idx 0
    b.halt();   // idx 1
    b.bind(fn); // idx 2
    b.jr(reg::ra);
    Program p = b.finish();
    EXPECT_EQ(p.fetch(0).target, 2u);
    EXPECT_EQ(p.symbol("fn"), 2u);
}

TEST(Builder, UnboundUsedLabelIsFatal)
{
    setQuiet(true);
    ProgramBuilder b("t");
    Label missing = b.newLabel("missing");
    b.j(missing);
    EXPECT_THROW(b.finish(), FatalError);
}

TEST(Builder, UnusedUnboundLabelIsFine)
{
    ProgramBuilder b("t");
    (void)b.newLabel("never_used");
    b.halt();
    EXPECT_NO_THROW(b.finish());
}

TEST(Builder, DoubleBindIsFatal)
{
    setQuiet(true);
    ProgramBuilder b("t");
    Label l = b.newLabel("l");
    b.bind(l);
    b.nop();
    EXPECT_THROW(b.bind(l), FatalError);
}

TEST(Builder, LiSmallUsesOneInstruction)
{
    ProgramBuilder b("t");
    b.li(reg::t0, 100);
    b.li(reg::t1, -3000);
    Program p = b.finish();
    EXPECT_EQ(p.textSize(), 2u);
    EXPECT_EQ(p.fetch(0).op, OpCode::ADDI);
    EXPECT_EQ(p.fetch(0).imm, 100);
}

TEST(Builder, LiLargeUsesLuiOri)
{
    ProgramBuilder b("t");
    b.li(reg::t0, 0x12345678);
    Program p = b.finish();
    ASSERT_EQ(p.textSize(), 2u);
    EXPECT_EQ(p.fetch(0).op, OpCode::LUI);
    EXPECT_EQ(p.fetch(0).imm, 0x1234);
    EXPECT_EQ(p.fetch(1).op, OpCode::ORI);
    EXPECT_EQ(p.fetch(1).imm, 0x5678);
}

TEST(Builder, LiNegativeRoundTrips)
{
    // Value reconstruction is validated functionally in test_vm; here
    // just check the encoding pattern exists for a negative constant.
    ProgramBuilder b("t");
    b.li(reg::t0, -100000);
    Program p = b.finish();
    EXPECT_GE(p.textSize(), 2u);
}

TEST(Builder, PrologueMarksSavesLocal)
{
    ProgramBuilder b("t");
    FrameSpec f;
    f.localWords = 3;
    f.savedRegs = {reg::s0, reg::s1};
    f.saveRa = true;
    b.prologue(f);
    Program p = b.finish();

    // addi sp,sp,-24; sw ra; sw s0; sw s1.
    EXPECT_EQ(p.textSize(), 4u);
    Inst adj = p.fetch(0);
    EXPECT_EQ(adj.op, OpCode::ADDI);
    EXPECT_EQ(adj.rt, reg::sp);
    EXPECT_EQ(adj.imm, -24);
    for (std::uint32_t i = 1; i < 4; ++i) {
        Inst sw = p.fetch(i);
        EXPECT_EQ(sw.op, OpCode::SW);
        EXPECT_EQ(sw.rs, reg::sp);
        EXPECT_TRUE(sw.localHint) << "save " << i << " not marked local";
    }
    // Saves land above the locals: slots 3, 4, 5.
    EXPECT_EQ(p.fetch(1).imm, 12);
    EXPECT_EQ(p.fetch(2).imm, 16);
    EXPECT_EQ(p.fetch(3).imm, 20);
}

TEST(Builder, EpilogueMirrorsPrologue)
{
    ProgramBuilder b("t");
    FrameSpec f;
    f.localWords = 1;
    f.savedRegs = {reg::s0};
    b.epilogue(f);
    Program p = b.finish();
    // lw ra; lw s0; addi sp,+12; jr ra.
    ASSERT_EQ(p.textSize(), 4u);
    EXPECT_EQ(p.fetch(0).op, OpCode::LW);
    EXPECT_TRUE(p.fetch(0).localHint);
    EXPECT_EQ(p.fetch(2).op, OpCode::ADDI);
    EXPECT_EQ(p.fetch(2).imm, 12);
    EXPECT_EQ(p.fetch(3).op, OpCode::JR);
    EXPECT_EQ(p.fetch(3).rs, reg::ra);
}

TEST(Builder, EmptyFrameEpilogueIsJustReturn)
{
    ProgramBuilder b("t");
    FrameSpec f;
    f.saveRa = false;
    b.epilogue(f);
    Program p = b.finish();
    ASSERT_EQ(p.textSize(), 1u);
    EXPECT_EQ(p.fetch(0).op, OpCode::JR);
}

TEST(Builder, FrameSpecSizes)
{
    FrameSpec f;
    f.localWords = 2;
    f.savedRegs = {reg::s0, reg::s1, reg::s2};
    f.saveRa = true;
    EXPECT_EQ(f.frameWords(), 6);
    EXPECT_EQ(f.frameBytes(), 24);
}

TEST(Builder, DataSegment)
{
    ProgramBuilder b("t");
    Addr w = b.dataWord(0xdeadbeef);
    EXPECT_EQ(w, layout::DataBase);
    Addr arr = b.dataWords(4);
    EXPECT_EQ(arr, layout::DataBase + 4);
    b.dataAlign(8);
    Addr d = b.dataDouble(1.5);
    EXPECT_EQ(d % 8, 0u);
    b.halt();
    Program p = b.finish();
    EXPECT_GE(p.dataSegment().size(), 4u + 16u + 8u);
    // First word content.
    Word v;
    std::memcpy(&v, p.dataSegment().data(), 4);
    EXPECT_EQ(v, 0xdeadbeefu);
}

TEST(Builder, LocalSlotAccessorsAnnotate)
{
    ProgramBuilder b("t");
    b.storeLocal(reg::t0, 2);
    b.loadLocal(reg::t1, 2);
    Program p = b.finish();
    EXPECT_EQ(p.fetch(0).op, OpCode::SW);
    EXPECT_EQ(p.fetch(0).imm, 8);
    EXPECT_TRUE(p.fetch(0).localHint);
    EXPECT_EQ(p.fetch(1).op, OpCode::LW);
    EXPECT_TRUE(p.fetch(1).localHint);
}

TEST(Program, SymbolsAndFetchBounds)
{
    setQuiet(true);
    ProgramBuilder b("t");
    b.here("start");
    b.halt();
    Program p = b.finish();
    EXPECT_TRUE(p.hasSymbol("start"));
    EXPECT_THROW(p.symbol("nope"), FatalError);
    EXPECT_EQ(p.fetch(0).op, OpCode::HALT);
    EXPECT_THROW(p.fetch(1), FatalError);
    EXPECT_THROW(p.fetchRaw(1), FatalError);
    EXPECT_THROW(p.fetch(99), FatalError);
}

TEST(Builder, UseAfterFinishPanics)
{
    setQuiet(true);
    ProgramBuilder b("t");
    b.halt();
    b.finish();
    EXPECT_THROW(b.nop(), PanicError);
}
