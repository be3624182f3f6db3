#include "vm/executor.hh"

#include <cmath>

#include "util/log.hh"
#include "vm/emit.hh"

namespace ddsim::vm {

using isa::Inst;
using isa::OpCode;
namespace reg = isa::reg;

Executor::Executor(const prog::Program &program)
    : program(program)
{
    const auto &data = program.dataSegment();
    if (!data.empty())
        mem.writeBlock(layout::DataBase, data.data(), data.size());

    gprs[reg::sp] = layout::StackBase;
    gprs[reg::gp] = layout::DataBase;
    gprs[reg::fp] = layout::StackBase;
    gprs[reg::ra] = ExitRa;
    pc = program.entry();
}

void
Executor::setGpr(RegId r, Word v)
{
    writeGpr(r, v);
}

void
Executor::writeGpr(RegId r, Word v)
{
    if (r == reg::zero)
        return;
    gprs[r] = v;
    ++gprVersions[r];
    if (r == reg::sp && v < minSp)
        minSp = v;
}

Addr
Executor::toTextIdx(Addr byteAddr) const
{
    if (byteAddr < layout::TextBase || byteAddr % 4 != 0)
        fatal("jump to non-text address 0x%08x", byteAddr);
    return (byteAddr - layout::TextBase) / 4;
}

template <class Emit>
std::uint64_t
Executor::execute(std::uint64_t n, Emit out)
{
    std::uint64_t k = 0;
    for (; k < n && !haltFlag; ++k) {
        const Inst &inst = program.fetch(pc);
        out.begin(seq, pc, inst);

        std::uint32_t next = pc + 1;
        bool taken = false;
        Word rsv = gprs[inst.rs];
        Word rtv = gprs[inst.rt];
        SWord rss = static_cast<SWord>(rsv);
        SWord rts = static_cast<SWord>(rtv);

        switch (inst.op) {
          case OpCode::NOP:
            break;
          case OpCode::HALT:
            haltFlag = true;
            break;
          case OpCode::PRINT:
            output.push_back(rsv);
            break;

          case OpCode::ADD: writeGpr(inst.rd, rsv + rtv); break;
          case OpCode::SUB: writeGpr(inst.rd, rsv - rtv); break;
          case OpCode::MUL: writeGpr(inst.rd, rsv * rtv); break;
          case OpCode::DIV:
            // Division by zero is architecturally defined as 0 in
            // MISA; INT_MIN / -1 wraps to INT_MIN.
            if (rts == 0)
                writeGpr(inst.rd, 0);
            else if (rss == INT32_MIN && rts == -1)
                writeGpr(inst.rd, static_cast<Word>(INT32_MIN));
            else
                writeGpr(inst.rd, static_cast<Word>(rss / rts));
            break;
          case OpCode::AND: writeGpr(inst.rd, rsv & rtv); break;
          case OpCode::OR:  writeGpr(inst.rd, rsv | rtv); break;
          case OpCode::XOR: writeGpr(inst.rd, rsv ^ rtv); break;
          case OpCode::NOR: writeGpr(inst.rd, ~(rsv | rtv)); break;
          case OpCode::SLLV: writeGpr(inst.rd, rsv << (rtv & 31)); break;
          case OpCode::SRLV: writeGpr(inst.rd, rsv >> (rtv & 31)); break;
          case OpCode::SRAV:
            writeGpr(inst.rd, static_cast<Word>(rss >> (rtv & 31)));
            break;
          case OpCode::SLT: writeGpr(inst.rd, rss < rts ? 1 : 0); break;
          case OpCode::SLTU: writeGpr(inst.rd, rsv < rtv ? 1 : 0); break;

          case OpCode::SLL:
            writeGpr(inst.rd, rsv << (inst.imm & 31));
            break;
          case OpCode::SRL:
            writeGpr(inst.rd, rsv >> (inst.imm & 31));
            break;
          case OpCode::SRA:
            writeGpr(inst.rd, static_cast<Word>(rss >> (inst.imm & 31)));
            break;

          case OpCode::ADDI:
            writeGpr(inst.rt, rsv + static_cast<Word>(inst.imm));
            if (frameAllocBytes(inst) != 0)
                out.control(inst, next);
            break;
          case OpCode::ANDI:
            writeGpr(inst.rt, rsv & static_cast<Word>(inst.imm));
            break;
          case OpCode::ORI:
            writeGpr(inst.rt, rsv | static_cast<Word>(inst.imm));
            break;
          case OpCode::XORI:
            writeGpr(inst.rt, rsv ^ static_cast<Word>(inst.imm));
            break;
          case OpCode::SLTI:
            writeGpr(inst.rt, rss < inst.imm ? 1 : 0);
            break;
          case OpCode::LUI:
            writeGpr(inst.rt, static_cast<Word>(inst.imm) << 16);
            break;

          case OpCode::LW:
          case OpCode::LB:
          case OpCode::LBU:
          case OpCode::LD: {
            Addr addr = rsv + static_cast<Word>(inst.imm);
            out.access(pc, inst, addr, false, gprVersions[inst.rs]);
            switch (inst.op) {
              case OpCode::LW: writeGpr(inst.rt, mem.readWord(addr)); break;
              case OpCode::LB:
                writeGpr(inst.rt, static_cast<Word>(static_cast<SWord>(
                                      static_cast<std::int8_t>(
                                          mem.readByte(addr)))));
                break;
              case OpCode::LBU:
                writeGpr(inst.rt, mem.readByte(addr));
                break;
              case OpCode::LD: fprs[inst.rt] = mem.readDouble(addr); break;
              default: break;
            }
            break;
          }
          case OpCode::SW:
          case OpCode::SB:
          case OpCode::SD: {
            Addr addr = rsv + static_cast<Word>(inst.imm);
            out.access(pc, inst, addr, true, gprVersions[inst.rs]);
            switch (inst.op) {
              case OpCode::SW: mem.writeWord(addr, rtv); break;
              case OpCode::SB:
                mem.writeByte(addr, static_cast<std::uint8_t>(rtv));
                break;
              case OpCode::SD: mem.writeDouble(addr, fprs[inst.rt]); break;
              default: break;
            }
            break;
          }

          case OpCode::BEQ:
            taken = rsv == rtv;
            break;
          case OpCode::BNE:
            taken = rsv != rtv;
            break;
          case OpCode::BLEZ:
            taken = rss <= 0;
            break;
          case OpCode::BGTZ:
            taken = rss > 0;
            break;
          case OpCode::BLTZ:
            taken = rss < 0;
            break;
          case OpCode::BGEZ:
            taken = rss >= 0;
            break;

          case OpCode::J:
            taken = true;
            next = inst.target;
            out.control(inst, next);
            break;
          case OpCode::JAL:
            taken = true;
            writeGpr(reg::ra, prog::Program::textAddr(pc + 1));
            next = inst.target;
            out.control(inst, next);
            break;
          case OpCode::JR: {
            taken = true;
            if (rsv == ExitRa) {
                haltFlag = true;
                next = pc; // arbitrary; machine is halted
            } else {
                next = toTextIdx(rsv);
            }
            out.control(inst, next);
            break;
          }
          case OpCode::JALR: {
            taken = true;
            Word target = rsv; // read before rd write (rd may equal rs)
            writeGpr(inst.rd, prog::Program::textAddr(pc + 1));
            if (target == ExitRa) {
                haltFlag = true;
                next = pc;
            } else {
                next = toTextIdx(target);
            }
            out.control(inst, next);
            break;
          }

          case OpCode::ADD_D:
            fprs[inst.rd] = fprs[inst.rs] + fprs[inst.rt];
            break;
          case OpCode::SUB_D:
            fprs[inst.rd] = fprs[inst.rs] - fprs[inst.rt];
            break;
          case OpCode::MUL_D:
            fprs[inst.rd] = fprs[inst.rs] * fprs[inst.rt];
            break;
          case OpCode::DIV_D:
            fprs[inst.rd] = fprs[inst.rt] == 0.0
                                ? 0.0
                                : fprs[inst.rs] / fprs[inst.rt];
            break;
          case OpCode::MOV_D:
            fprs[inst.rd] = fprs[inst.rs];
            break;
          case OpCode::NEG_D:
            fprs[inst.rd] = -fprs[inst.rs];
            break;
          case OpCode::CVT_D_W:
            fprs[inst.rd] = static_cast<double>(rss);
            break;
          case OpCode::CVT_W_D: {
            // Saturating conversion: out-of-range and NaN inputs
            // clamp, keeping the architectural result well defined.
            double v = std::trunc(fprs[inst.rs]);
            SWord w;
            if (std::isnan(v))
                w = 0;
            else if (v >= 2147483647.0)
                w = INT32_MAX;
            else if (v <= -2147483648.0)
                w = INT32_MIN;
            else
                w = static_cast<SWord>(v);
            writeGpr(inst.rd, static_cast<Word>(w));
            break;
          }
          case OpCode::C_LT_D:
            writeGpr(inst.rd, fprs[inst.rs] < fprs[inst.rt] ? 1 : 0);
            break;
          case OpCode::C_LE_D:
            writeGpr(inst.rd, fprs[inst.rs] <= fprs[inst.rt] ? 1 : 0);
            break;
          case OpCode::C_EQ_D:
            writeGpr(inst.rd, fprs[inst.rs] == fprs[inst.rt] ? 1 : 0);
            break;

          case OpCode::NumOpcodes:
            panic("invalid opcode in executor");
        }

        if (isa::isCondBranch(inst.op) && taken)
            next = static_cast<std::uint32_t>(
                static_cast<std::int64_t>(pc) + 1 + inst.imm);

        out.end(taken, next);
        ++seq;
        pc = next;
    }
    return k;
}

DynInst
Executor::step()
{
    if (haltFlag)
        panic("Executor::step() called on a halted machine");
    DynInst di;
    fill(&di, 1);
    return di;
}

std::size_t
Executor::fill(DynInst *out, std::size_t n)
{
    return static_cast<std::size_t>(execute(n, RecordEmit(out)));
}

std::uint64_t
Executor::skip(std::uint64_t n, SkipSink &sink)
{
    return execute(n, SinkEmit(sink));
}

std::uint64_t
Executor::run(std::uint64_t maxInsts)
{
    std::uint64_t n = 0;
    DynInst di;
    while (n < maxInsts && fill(&di, 1) == 1)
        ++n;
    return n;
}

} // namespace ddsim::vm
