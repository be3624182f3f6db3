/**
 * @file
 * MISA opcode definitions and static per-opcode properties.
 *
 * MISA is a 32-bit fixed-width RISC ISA in the MIPS mould: 32 GPRs
 * (r0 hard-wired to zero), 32 FPRs holding 64-bit doubles, base+offset
 * addressing. Memory instructions carry a 15-bit signed byte offset and
 * a one-bit compiler annotation ("local") marking accesses to stack
 * frame variables — the classification bit of Section 2.2.3 of the
 * paper. The short offset field deliberately reproduces the paper's
 * footnote 6: frames bigger than 4 K words overflow the offset and
 * force the compiler to use a secondary base register.
 */

#ifndef DDSIM_ISA_OPCODE_HH_
#define DDSIM_ISA_OPCODE_HH_

#include <array>
#include <cstddef>
#include <cstdint>

namespace ddsim::isa {

/** All MISA opcodes. Values are the 6-bit primary opcode field. */
enum class OpCode : std::uint8_t
{
    NOP = 0,
    HALT,
    PRINT,      ///< Debug: print GPR rs (no architectural effect).

    // Integer register-register ALU (R3 format: rd, rs, rt).
    ADD, SUB, MUL, DIV,
    AND, OR, XOR, NOR,
    SLLV, SRLV, SRAV,   ///< Variable shifts: amount in rt[4:0].
    SLT, SLTU,

    // Immediate shifts (RShift format: rd, rs, shamt).
    SLL, SRL, SRA,

    // Integer immediate ALU (I format: rt, rs, imm).
    ADDI, ANDI, ORI, XORI, SLTI,
    LUI,        ///< rt = imm << 16 (I1 format: rt, imm).

    // Memory (M format: rt, offset(rs), local-hint bit).
    LW,         ///< Load 32-bit word into GPR rt.
    LB,         ///< Load signed byte.
    LBU,        ///< Load unsigned byte.
    SW,         ///< Store word from GPR rt.
    SB,         ///< Store low byte of GPR rt.
    LD,         ///< Load 64-bit double into FPR rt.
    SD,         ///< Store 64-bit double from FPR rt.

    // Conditional branches (B2: rs, rt, offset / B1: rs, offset).
    BEQ, BNE,
    BLEZ, BGTZ, BLTZ, BGEZ,

    // Unconditional jumps.
    J,          ///< J format: 26-bit word target.
    JAL,        ///< Like J; writes return address into r31 (ra).
    JR,         ///< Jump to GPR rs (function return when rs == ra).
    JALR,       ///< rd = return address; jump to rs.

    // Floating point (R3 on the FPR file unless noted).
    ADD_D, SUB_D, MUL_D, DIV_D,
    MOV_D, NEG_D,               ///< R2: rd, rs (FPR).
    CVT_D_W,    ///< FPR rd = (double)(int32)GPR rs.
    CVT_W_D,    ///< GPR rd = (int32)FPR rs (truncate).
    C_LT_D, C_LE_D, C_EQ_D,     ///< GPR rd = FPR rs <op> FPR rt.

    NumOpcodes
};

inline constexpr int NumOpcodesInt = static_cast<int>(OpCode::NumOpcodes);

/** Instruction encoding format. */
enum class Format : std::uint8_t
{
    None,       ///< NOP, HALT.
    R3,         ///< rd, rs, rt.
    R2,         ///< rd, rs.
    RShift,     ///< rd, rs, shamt (imm holds shamt 0..31).
    I2,         ///< rt, rs, imm16.
    I1,         ///< rt, imm16 (LUI).
    Mem,        ///< rt, imm15(rs), local bit.
    B2,         ///< rs, rt, imm16 branch offset (words).
    B1,         ///< rs, imm16 branch offset (words).
    Jmp,        ///< 26-bit absolute word target.
    JmpR,       ///< rs.
    JmpLinkR,   ///< rd, rs.
    Print,      ///< rs.
};

/** Functional unit class an instruction executes on. */
enum class FuClass : std::uint8_t
{
    IntAlu,     ///< 1-cycle integer ops, branches, address generation.
    IntMult,    ///< Pipelined integer multiply.
    IntDiv,     ///< Unpipelined integer divide.
    FpAlu,      ///< FP add/sub/convert/compare/move.
    FpMult,     ///< Pipelined FP multiply.
    FpDiv,      ///< Unpipelined FP divide.
    MemPort,    ///< Loads/stores: scheduled by the memory queues.
    NumClasses
};

inline constexpr int NumFuClasses =
    static_cast<int>(FuClass::NumClasses);

/** Which register file a register reference names. */
enum class RegFile : std::uint8_t { None, Gpr, Fpr };

/** Static properties of one opcode. */
struct OpInfo
{
    const char *mnemonic;
    Format fmt;
    FuClass fu;
    std::uint8_t latency;       ///< Execution latency in cycles.
    bool pipelined;             ///< False for the divide units.
    bool load;
    bool store;
    bool condBranch;
    bool uncondJump;
    bool call;                  ///< JAL / JALR.
    bool fp;                    ///< Touches the FPR file.
    std::uint8_t accessSize;    ///< Memory bytes (0 for non-memory).
};

/**
 * Static properties of every opcode, indexed by opcode value.
 * Constant-initialized; opcode.cc proves at compile time that it
 * covers every OpCode exactly once.
 */
extern const std::array<OpInfo, NumOpcodesInt> OpInfoTable;

/** Out-of-line panic for an opcode value outside the table. */
[[noreturn]] void badOpcode(int idx);

/** Look up the static properties of @p op. */
inline const OpInfo &
opInfo(OpCode op)
{
    auto idx = static_cast<std::size_t>(op);
    if (idx >= OpInfoTable.size()) [[unlikely]]
        badOpcode(static_cast<int>(idx));
    return OpInfoTable[idx];
}

/** Mnemonic string for @p op. */
const char *mnemonic(OpCode op);

/** Parse a mnemonic (case-insensitive). Returns NumOpcodes on failure. */
OpCode parseMnemonic(const char *name);

inline bool isLoad(OpCode op) { return opInfo(op).load; }
inline bool isStore(OpCode op) { return opInfo(op).store; }
inline bool isMem(OpCode op) { return isLoad(op) || isStore(op); }
inline bool isCondBranch(OpCode op) { return opInfo(op).condBranch; }
inline bool isUncondJump(OpCode op) { return opInfo(op).uncondJump; }
inline bool
isControl(OpCode op)
{
    return isCondBranch(op) || isUncondJump(op);
}
inline bool isCall(OpCode op) { return opInfo(op).call; }

} // namespace ddsim::isa

#endif // DDSIM_ISA_OPCODE_HH_
