/**
 * @file
 * Decoded MISA instruction representation and register-dependency
 * extraction, the form both the functional executor and the timing
 * model consume.
 */

#ifndef DDSIM_ISA_INST_HH_
#define DDSIM_ISA_INST_HH_

#include <cstdint>

#include "isa/opcode.hh"
#include "isa/regs.hh"
#include "util/types.hh"

namespace ddsim::isa {

/**
 * Static classification of one memory instruction: what the analyzer
 * proves about it (analysis::analyze), what an external trace's
 * ingest pass observed (vm::ExternalTrace::verdicts), and the per-pc
 * table ClassifierKind::StaticHybrid steers by. Inst::localHint is the
 * one-bit form a compiler annotation burns into the encoding.
 */
enum class Verdict : std::uint8_t
{
    Ambiguous,  ///< Undecided: the hybrid classifier asks its predictor.
    Local,      ///< A stack (local-variable) access: steer to the LVAQ.
    NonLocal,   ///< Not a stack access: steer to the LSQ.
};

/** A decoded instruction. */
struct Inst
{
    OpCode op = OpCode::NOP;
    RegId rd = 0;               ///< R-type destination field.
    RegId rs = 0;               ///< First source / base register.
    RegId rt = 0;               ///< Second source / I-type dest / data.
    std::int32_t imm = 0;       ///< Sign-extended imm / shamt.
    std::uint32_t target = 0;   ///< J-type absolute word index.
    bool localHint = false;     ///< Compiler "local variable" mark.

    bool operator==(const Inst &) const = default;
};

/** A reference into one of the register files. */
struct RegRef
{
    RegFile file = RegFile::None;
    RegId idx = 0;

    bool valid() const { return file != RegFile::None; }
    bool operator==(const RegRef &) const = default;
};

inline RegRef gprRef(RegId r) { return {RegFile::Gpr, r}; }
inline RegRef fprRef(RegId r) { return {RegFile::Fpr, r}; }

/**
 * The architectural destination of @p inst, or an invalid RegRef.
 * Writes to GPR 0 are reported as no destination (r0 is wired to 0).
 */
RegRef destReg(const Inst &inst);

/**
 * Collect the register sources of @p inst into @p out (capacity >= 2).
 * For stores, the base register comes first and the data register
 * second; the timing model treats them separately (address generation
 * needs only the base, forwarding needs only the data).
 *
 * @return Number of sources written (0..2).
 */
int srcRegs(const Inst &inst, RegRef out[2]);

/** Base (address) register of a memory instruction. */
inline RegRef
memBaseReg(const Inst &inst)
{
    return gprRef(inst.rs);
}

/** Data register of a store. */
inline RegRef
storeDataReg(const Inst &inst)
{
    return opInfo(inst.op).fp ? fprRef(inst.rt) : gprRef(inst.rt);
}

/** True if this instruction is a function return (jr ra). */
inline bool
isReturn(const Inst &inst)
{
    return inst.op == OpCode::JR && inst.rs == reg::ra;
}

/** True if this instruction writes GPR @p r. */
bool writesGpr(const Inst &inst, RegId r);

} // namespace ddsim::isa

#endif // DDSIM_ISA_INST_HH_
