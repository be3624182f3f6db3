/**
 * @file
 * ISA tests: opcode table consistency, encode/decode round-trips over
 * every opcode (parameterized), field limits, register naming,
 * dependency extraction and the disassembler.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/annotate.hh"
#include "isa/disasm.hh"
#include "isa/encode.hh"
#include "isa/inst.hh"
#include "isa/opcode.hh"
#include "isa/regs.hh"
#include "prog/asm_parser.hh"
#include "util/log.hh"
#include "workloads/common.hh"

using namespace ddsim;
using namespace ddsim::isa;

namespace {

/** Build a representative instruction for an opcode. */
Inst
sampleInst(OpCode op)
{
    const OpInfo &info = opInfo(op);
    Inst i;
    i.op = op;
    switch (info.fmt) {
      case Format::None:
        break;
      case Format::R3:
        i.rd = 3;
        i.rs = 7;
        i.rt = 12;
        break;
      case Format::R2:
        i.rd = 4;
        i.rs = 9;
        break;
      case Format::RShift:
        i.rd = 5;
        i.rs = 6;
        i.imm = 13;
        break;
      case Format::I2:
        i.rt = 8;
        i.rs = 2;
        i.imm = (op == OpCode::ANDI || op == OpCode::ORI ||
                 op == OpCode::XORI)
                    ? 0xbeef
                    : -1234;
        break;
      case Format::I1:
        i.rt = 10;
        i.imm = 0xcafe;
        break;
      case Format::Mem:
        i.rt = 11;
        i.rs = reg::sp;
        i.imm = -44;
        i.localHint = true;
        break;
      case Format::B2:
        i.rs = 14;
        i.rt = 15;
        i.imm = -7;
        break;
      case Format::B1:
        i.rs = 16;
        i.imm = 20;
        break;
      case Format::Jmp:
        i.target = 0x123456;
        break;
      case Format::JmpR:
      case Format::Print:
        i.rs = reg::ra;
        break;
      case Format::JmpLinkR:
        i.rd = reg::ra;
        i.rs = 17;
        break;
    }
    return i;
}

} // namespace

class OpcodeRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(OpcodeRoundTrip, EncodeDecodeIdentity)
{
    OpCode op = static_cast<OpCode>(GetParam());
    Inst original = sampleInst(op);
    std::uint32_t word = encode(original);
    Inst decoded = decode(word);
    EXPECT_EQ(decoded, original) << "opcode " << mnemonic(op);
}

TEST_P(OpcodeRoundTrip, MnemonicParsesBack)
{
    OpCode op = static_cast<OpCode>(GetParam());
    EXPECT_EQ(parseMnemonic(mnemonic(op)), op);
}

TEST_P(OpcodeRoundTrip, DisassemblyNonEmptyAndStartsWithMnemonic)
{
    OpCode op = static_cast<OpCode>(GetParam());
    std::string text = disassemble(sampleInst(op));
    EXPECT_EQ(text.rfind(mnemonic(op), 0), 0u) << text;
}

TEST_P(OpcodeRoundTrip, DisassemblyReassemblesToSameInst)
{
    // The full textual loop: encode a representative instruction,
    // render it, and feed the text back through the AsmParser. Every
    // field — including the local-hint annotation bit — must survive.
    OpCode op = static_cast<OpCode>(GetParam());
    Inst original = sampleInst(op);
    std::string text = disassemble(original);
    prog::Program p =
        prog::assemble("main:\n    " + text + "\n    halt\n");
    EXPECT_EQ(p.fetch(0), original) << text;
}

TEST_P(OpcodeRoundTrip, LocalHintClearSurvivesTextRoundTrip)
{
    // sampleInst sets the hint on memory instructions; pin the
    // unannotated encoding too, since the paper's classifier treats
    // the two cases asymmetrically.
    OpCode op = static_cast<OpCode>(GetParam());
    if (opInfo(op).fmt != Format::Mem)
        return;
    Inst original = sampleInst(op);
    original.localHint = false;
    EXPECT_EQ(decode(encode(original)), original);
    std::string text = disassemble(original);
    EXPECT_EQ(text.find("!local"), std::string::npos) << text;
    prog::Program p =
        prog::assemble("main:\n    " + text + "\n    halt\n");
    EXPECT_EQ(p.fetch(0), original) << text;
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeRoundTrip,
                         ::testing::Range(0, NumOpcodesInt));

TEST(AnnotatedRoundTrip, WorkloadsSurviveDisasmReparse)
{
    // The static partitioning pass rewrites hint bits in-place; the
    // result must still be a well-formed program whose full listing
    // disassembles and reparses to the identical text image — hint
    // bits included. The registry generators already emit perfect
    // hints, so strip them first (an unannotated compiler) to force
    // the pass to do real rewriting before the round-trip.
    std::size_t flipped = 0;
    for (const auto &info : workloads::all()) {
        workloads::WorkloadParams params;
        params.scale = 5;
        prog::Program base = info.factory(params);
        for (std::uint32_t i = 0; i < base.textSize(); ++i) {
            Inst inst = base.fetch(i);
            if (opInfo(inst.op).fmt == Format::Mem &&
                inst.localHint) {
                inst.localHint = false;
                base.patch(i, encode(inst));
            }
        }
        analysis::AnnotateStats st;
        prog::Program annotated = analysis::annotateProgram(
            base, analysis::HintPolicy::Speculative, &st);
        flipped += st.changed;

        std::ostringstream os;
        os << "main:\n";
        for (std::uint32_t i = 0; i < annotated.textSize(); ++i)
            os << "    " << disassemble(annotated.fetch(i)) << "\n";
        prog::Program reparsed = prog::assemble(os.str(), info.name);

        ASSERT_EQ(reparsed.textSize(), annotated.textSize())
            << info.name;
        for (std::uint32_t i = 0; i < annotated.textSize(); ++i) {
            ASSERT_EQ(reparsed.fetchRaw(i), annotated.fetchRaw(i))
                << info.name << " @" << i << ": "
                << disassemble(annotated.fetch(i));
        }
    }
    // The pass must have really exercised the hint-bit path: the
    // stripped hints on stack accesses all come back.
    EXPECT_GT(flipped, 0u);
}

TEST(Encode, MemOffsetLimits)
{
    setQuiet(true);
    Inst i;
    i.op = OpCode::LW;
    i.rt = 1;
    i.rs = reg::sp;
    i.imm = MemOffsetMax;
    EXPECT_NO_THROW(encode(i));
    i.imm = MemOffsetMin;
    EXPECT_NO_THROW(encode(i));
    i.imm = MemOffsetMax + 1;
    EXPECT_THROW(encode(i), FatalError);
    i.imm = MemOffsetMin - 1;
    EXPECT_THROW(encode(i), FatalError);
}

TEST(Encode, LocalBitSurvivesRoundTrip)
{
    Inst i;
    i.op = OpCode::SW;
    i.rt = 4;
    i.rs = reg::sp;
    i.imm = 16;
    i.localHint = true;
    Inst d = decode(encode(i));
    EXPECT_TRUE(d.localHint);
    i.localHint = false;
    d = decode(encode(i));
    EXPECT_FALSE(d.localHint);
}

TEST(Encode, LogicalImmediateZeroExtends)
{
    Inst i;
    i.op = OpCode::ORI;
    i.rt = 2;
    i.rs = 2;
    i.imm = 0xffff;
    Inst d = decode(encode(i));
    EXPECT_EQ(d.imm, 0xffff); // not sign-extended
}

TEST(Encode, SignedImmediateSignExtends)
{
    Inst i;
    i.op = OpCode::ADDI;
    i.rt = 2;
    i.rs = 2;
    i.imm = -1;
    Inst d = decode(encode(i));
    EXPECT_EQ(d.imm, -1);
}

TEST(Encode, InvalidOpcodeRejected)
{
    setQuiet(true);
    std::uint32_t word = 63u << 26; // beyond NumOpcodes
    EXPECT_THROW(decode(word), FatalError);
}

TEST(Regs, NamesAndParsing)
{
    EXPECT_STREQ(gprName(reg::sp), "sp");
    EXPECT_STREQ(gprName(reg::zero), "zero");
    RegId idx;
    bool fpr;
    EXPECT_TRUE(parseRegName("sp", idx, fpr));
    EXPECT_EQ(idx, reg::sp);
    EXPECT_FALSE(fpr);
    EXPECT_TRUE(parseRegName("$t3", idx, fpr));
    EXPECT_EQ(idx, reg::t3);
    EXPECT_TRUE(parseRegName("f12", idx, fpr));
    EXPECT_EQ(idx, 12);
    EXPECT_TRUE(fpr);
    EXPECT_TRUE(parseRegName("r31", idx, fpr));
    EXPECT_EQ(idx, 31);
    EXPECT_FALSE(parseRegName("bogus", idx, fpr));
    EXPECT_FALSE(parseRegName("r32", idx, fpr));
}

TEST(Regs, StackBaseDetection)
{
    EXPECT_TRUE(isStackBase(reg::sp));
    EXPECT_TRUE(isStackBase(reg::fp));
    EXPECT_FALSE(isStackBase(reg::gp));
    EXPECT_FALSE(isStackBase(reg::t0));
}

TEST(Deps, AluSourcesAndDest)
{
    Inst i;
    i.op = OpCode::ADD;
    i.rd = 3;
    i.rs = 4;
    i.rt = 5;
    RegRef srcs[2];
    EXPECT_EQ(srcRegs(i, srcs), 2);
    EXPECT_EQ(srcs[0], gprRef(4));
    EXPECT_EQ(srcs[1], gprRef(5));
    EXPECT_EQ(destReg(i), gprRef(3));
}

TEST(Deps, ZeroDestinationIsDiscarded)
{
    Inst i;
    i.op = OpCode::ADD;
    i.rd = reg::zero;
    i.rs = 1;
    i.rt = 2;
    EXPECT_FALSE(destReg(i).valid());
}

TEST(Deps, StoreHasBaseThenData)
{
    Inst i;
    i.op = OpCode::SW;
    i.rt = 9;          // data
    i.rs = reg::sp;    // base
    RegRef srcs[2];
    EXPECT_EQ(srcRegs(i, srcs), 2);
    EXPECT_EQ(srcs[0], gprRef(reg::sp));
    EXPECT_EQ(srcs[1], gprRef(9));
    EXPECT_FALSE(destReg(i).valid());
}

TEST(Deps, FpStoreDataIsFpr)
{
    Inst i;
    i.op = OpCode::SD;
    i.rt = 6;
    i.rs = reg::sp;
    RegRef srcs[2];
    EXPECT_EQ(srcRegs(i, srcs), 2);
    EXPECT_EQ(srcs[1], fprRef(6));
}

TEST(Deps, LoadWritesItsFile)
{
    Inst lw;
    lw.op = OpCode::LW;
    lw.rt = 7;
    lw.rs = reg::sp;
    EXPECT_EQ(destReg(lw), gprRef(7));

    Inst ld;
    ld.op = OpCode::LD;
    ld.rt = 7;
    ld.rs = reg::sp;
    EXPECT_EQ(destReg(ld), fprRef(7));
}

TEST(Deps, JalWritesRa)
{
    Inst i;
    i.op = OpCode::JAL;
    i.target = 100;
    EXPECT_EQ(destReg(i), gprRef(reg::ra));
}

TEST(Deps, FpCompareWritesGprFromFprSources)
{
    Inst i;
    i.op = OpCode::C_LT_D;
    i.rd = 3;
    i.rs = 8;
    i.rt = 9;
    EXPECT_EQ(destReg(i), gprRef(3));
    RegRef srcs[2];
    EXPECT_EQ(srcRegs(i, srcs), 2);
    EXPECT_EQ(srcs[0], fprRef(8));
    EXPECT_EQ(srcs[1], fprRef(9));
}

TEST(Deps, CvtCrossesFiles)
{
    Inst dw;
    dw.op = OpCode::CVT_D_W;
    dw.rd = 2;
    dw.rs = 5;
    EXPECT_EQ(destReg(dw), fprRef(2));
    RegRef srcs[2];
    EXPECT_EQ(srcRegs(dw, srcs), 1);
    EXPECT_EQ(srcs[0], gprRef(5));

    Inst wd;
    wd.op = OpCode::CVT_W_D;
    wd.rd = 2;
    wd.rs = 5;
    EXPECT_EQ(destReg(wd), gprRef(2));
    EXPECT_EQ(srcRegs(wd, srcs), 1);
    EXPECT_EQ(srcs[0], fprRef(5));
}

TEST(Deps, ReturnDetection)
{
    Inst i;
    i.op = OpCode::JR;
    i.rs = reg::ra;
    EXPECT_TRUE(isReturn(i));
    i.rs = reg::t0;
    EXPECT_FALSE(isReturn(i));
}

TEST(OpInfoTable, LatenciesMatchR10000)
{
    EXPECT_EQ(opInfo(OpCode::ADD).latency, 1);
    EXPECT_EQ(opInfo(OpCode::MUL).latency, 5);
    EXPECT_EQ(opInfo(OpCode::DIV).latency, 34);
    EXPECT_FALSE(opInfo(OpCode::DIV).pipelined);
    EXPECT_EQ(opInfo(OpCode::ADD_D).latency, 2);
    EXPECT_EQ(opInfo(OpCode::MUL_D).latency, 2);
    EXPECT_EQ(opInfo(OpCode::DIV_D).latency, 19);
    EXPECT_FALSE(opInfo(OpCode::DIV_D).pipelined);
}

TEST(OpInfoTable, EveryOpcodeHasARowAndOutOfRangePanics)
{
    ASSERT_EQ(OpInfoTable.size(), static_cast<std::size_t>(NumOpcodesInt));
    for (int i = 0; i < NumOpcodesInt; ++i)
        EXPECT_EQ(&opInfo(static_cast<OpCode>(i)), &OpInfoTable[i]);

    setQuiet(true);
    EXPECT_THROW(opInfo(OpCode::NumOpcodes), PanicError);
    EXPECT_THROW(opInfo(static_cast<OpCode>(0xff)), PanicError);
    EXPECT_THROW(mnemonic(OpCode::NumOpcodes), PanicError);
    setQuiet(false);
}

TEST(OpInfoTable, AccessSizes)
{
    EXPECT_EQ(opInfo(OpCode::LW).accessSize, 4);
    EXPECT_EQ(opInfo(OpCode::LB).accessSize, 1);
    EXPECT_EQ(opInfo(OpCode::SB).accessSize, 1);
    EXPECT_EQ(opInfo(OpCode::LD).accessSize, 8);
    EXPECT_EQ(opInfo(OpCode::SD).accessSize, 8);
    EXPECT_EQ(opInfo(OpCode::ADD).accessSize, 0);
}

TEST(OpInfoTable, ClassPredicates)
{
    EXPECT_TRUE(isLoad(OpCode::LW));
    EXPECT_TRUE(isStore(OpCode::SW));
    EXPECT_TRUE(isMem(OpCode::LD));
    EXPECT_FALSE(isMem(OpCode::ADD));
    EXPECT_TRUE(isCondBranch(OpCode::BEQ));
    EXPECT_TRUE(isUncondJump(OpCode::J));
    EXPECT_TRUE(isCall(OpCode::JAL));
    EXPECT_TRUE(isCall(OpCode::JALR));
    EXPECT_FALSE(isCall(OpCode::JR));
    EXPECT_TRUE(isControl(OpCode::BNE));
    EXPECT_TRUE(isControl(OpCode::JR));
}
