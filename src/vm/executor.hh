/**
 * @file
 * Functional executor for MISA programs.
 *
 * The executor is the in-order "oracle" front end of the simulator: it
 * executes instructions architecturally and hands the timing model a
 * stream of DynInst records carrying effective addresses and resolved
 * control flow — the paper's perfect I-cache + perfect branch
 * predictor configuration (Section 3.1).
 */

#ifndef DDSIM_VM_EXECUTOR_HH_
#define DDSIM_VM_EXECUTOR_HH_

#include <array>
#include <vector>

#include "prog/program.hh"
#include "vm/memory.hh"
#include "vm/trace.hh"

namespace ddsim::vm {

/** Functional machine state + stepper. */
class Executor final : public InstSource
{
  public:
    /** Return-address sentinel: "jr" to this halts the machine. */
    static constexpr Addr ExitRa = 0xffff'fffc;

    explicit Executor(const prog::Program &program);

    /** True once HALT executed or main returned to the exit sentinel. */
    bool halted() const override { return haltFlag; }

    /**
     * Execute the next instruction and return its dynamic record.
     * Calling step() on a halted machine is a panic.
     */
    DynInst step() override;

    /** Up to @p n records, stopping at the halt. */
    std::size_t fill(DynInst *out, std::size_t n) override;

    /** Up to @p n instructions into @p sink, stopping at the halt. */
    std::uint64_t skip(std::uint64_t n, SkipSink &sink) override;

    /** Run at most @p maxInsts instructions; returns number executed. */
    std::uint64_t run(std::uint64_t maxInsts);

    // State access (tests, examples, debuggers).
    Word gpr(RegId r) const { return gprs[r]; }
    void setGpr(RegId r, Word v);
    double fpr(RegId r) const { return fprs[r]; }
    void setFpr(RegId r, double v) { fprs[r] = v; }
    std::uint32_t pcIndex() const { return pc; }
    InstSeq instsExecuted() const { return seq; }

    SparseMemory &memory() { return mem; }
    const SparseMemory &memory() const { return mem; }

    /** Values emitted by PRINT instructions, in program order. */
    const std::vector<Word> &printed() const { return output; }

    /** Lowest sp value observed (stack high-water mark). */
    Addr stackLowWater() const { return minSp; }

  private:
    const prog::Program &program;
    SparseMemory mem;
    std::array<Word, NumGprs> gprs{};
    std::array<double, NumFprs> fprs{};
    std::array<std::uint32_t, NumGprs> gprVersions{};
    std::uint32_t pc = 0;
    bool haltFlag = false;
    InstSeq seq = 0;
    std::vector<Word> output;
    Addr minSp = layout::StackBase;

    /**
     * The interpreter: execute up to @p n instructions, stopping at
     * the halt, and emit each to @p out (vm/emit.hh). step, fill and
     * run emit records; skip emits to a sink.
     */
    template <class Emit>
    std::uint64_t execute(std::uint64_t n, Emit out);

    void writeGpr(RegId r, Word v);
    Addr toTextIdx(Addr byteAddr) const;
};

} // namespace ddsim::vm

#endif // DDSIM_VM_EXECUTOR_HH_
