/**
 * @file
 * The dynamic instruction record handed from the functional front end
 * to the timing model, plus a stream-statistics accumulator used for
 * the paper's workload-characterization figures (Fig. 2 and Fig. 3).
 */

#ifndef DDSIM_VM_TRACE_HH_
#define DDSIM_VM_TRACE_HH_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "isa/inst.hh"
#include "stats/histogram.hh"
#include "stats/group.hh"
#include "util/types.hh"

namespace ddsim::prog {
class Program;
}

namespace ddsim::vm {

/** Frame allocation (prologue "addi sp, sp, -N"): bytes, else 0. */
inline std::uint32_t
frameAllocBytes(const isa::Inst &inst)
{
    using isa::OpCode;
    using isa::reg::sp;
    if (inst.op == OpCode::ADDI && inst.rt == sp && inst.rs == sp &&
        inst.imm < 0)
        return static_cast<std::uint32_t>(-inst.imm);
    return 0;
}

/**
 * One executed instruction. The functional executor fills in
 * everything the out-of-order timing model cannot know on its own:
 * effective address, control-flow outcome (the paper's perfect branch
 * predictor), the oracle stack classification and the base-register
 * version used by fast data forwarding.
 */
struct DynInst
{
    InstSeq seq = 0;            ///< Dynamic sequence number.
    std::uint32_t pcIdx = 0;    ///< Text word index.
    isa::Inst inst;             ///< Decoded static instruction.

    // Memory operations only.
    Addr effAddr = 0;
    std::uint8_t accessSize = 0;
    bool stackAccess = false;   ///< Oracle: address in stack region.
    std::uint32_t baseVersion = 0; ///< Version of the base register
                                   ///< value (see fast forwarding).

    // Control flow.
    bool taken = false;
    std::uint32_t nextPcIdx = 0;

    bool isLoad() const { return isa::isLoad(inst.op); }
    bool isStore() const { return isa::isStore(inst.op); }
    bool isMem() const { return isLoad() || isStore(); }
};

/**
 * True for the instructions the call, return and frame statistics
 * read: every unconditional jump (calls, returns and plain jumps) and
 * every frame allocation.
 */
inline bool
isCallReturnFrame(const isa::Inst &inst)
{
    return isa::isUncondJump(inst.op) || frameAllocBytes(inst) != 0;
}

/**
 * What InstSource::skip reports of the instructions it executes
 * without records: each memory access, and each instruction
 * isCallReturnFrame() selects. Everything else a skipped instruction
 * does shows only in the source's state.
 */
class SkipSink
{
  public:
    virtual ~SkipSink() = default;

    /**
     * A load or store: @p inst at text index @p pcIdx touched
     * @p addr, which is in the stack region iff @p stack.
     */
    virtual void access(std::uint32_t pcIdx, const isa::Inst &inst,
                        Addr addr, bool store, bool stack) = 0;

    /** A call, return, jump or frame allocation that went on to
     *  text index @p nextPcIdx. */
    virtual void control(const isa::Inst &inst,
                         std::uint32_t nextPcIdx) = 0;
};

/**
 * The timing model's view of the functional front end: a stream of
 * DynInst records. Implemented by the live Executor and by
 * TraceReplay, which re-emits a previously recorded stream — the
 * pipeline cannot tell them apart.
 */
class InstSource
{
  public:
    virtual ~InstSource() = default;

    /** True once the stream is exhausted. */
    virtual bool halted() const = 0;

    /** Produce the next instruction; panics when halted. */
    virtual DynInst step() = 0;

    /**
     * Produce up to @p n next instructions into out[0, n), every
     * field written, exactly the records n step() calls would return.
     * @return The count written: fewer than @p n only when the stream
     *         ends (0 once halted; never panics).
     */
    virtual std::size_t fill(DynInst *out, std::size_t n) = 0;

    /**
     * Execute up to @p n next instructions without records or timing,
     * reporting each memory access and each call, return, jump or
     * frame allocation to @p sink in program order. Leaves the source
     * exactly where n step() calls would.
     * @return The count executed: fewer than @p n only when the stream
     *         ends (0 once halted; never panics).
     */
    virtual std::uint64_t skip(std::uint64_t n, SkipSink &sink) = 0;
};

/**
 * A program's full dynamic instruction stream, recorded once and
 * replayed any number of times (concurrently, if desired: replay is
 * read-only). Simulation is deterministic and the front end is
 * oblivious to the machine configuration, so one recording serves
 * every configuration point of a sweep — the functional execution
 * (sparse-memory traffic, register file, version tracking) is paid
 * once per program instead of once per grid point.
 *
 * The encoding is compact: one u32 per instruction holding the text
 * index plus taken/memory/indirect flags, followed by payload words
 * only where the static instruction cannot supply the field (effective
 * address and base version for memory ops, the dynamic target for
 * register-indirect jumps). Everything else — opcode, access size,
 * stack classification, branch targets — is re-derived from the
 * program text at replay time.
 */
class RecordedTrace
{
  public:
    /**
     * Functionally execute @p program to completion (or @p maxInsts
     * instructions) and record the stream. The program must outlive
     * the trace and every replay of it.
     */
    static RecordedTrace record(const prog::Program &program,
                                std::uint64_t maxInsts = 0);

    const prog::Program &program() const { return *prog; }
    std::uint64_t instCount() const { return numInsts; }
    /** Encoded size: words per instruction averages well under 2. */
    std::size_t wordCount() const { return words.size(); }

  private:
    friend class TraceReplay;
    friend class ExternalTrace; ///< xtrace codec packs/unpacks words.

    static constexpr std::uint32_t TakenBit = 1u << 31;
    static constexpr std::uint32_t MemBit = 1u << 30;
    static constexpr std::uint32_t IndirectBit = 1u << 29;
    static constexpr std::uint32_t PcMask = IndirectBit - 1;

    RecordedTrace() = default;

    const prog::Program *prog = nullptr;
    std::vector<std::uint32_t> words;
    std::uint64_t numInsts = 0;
};

/**
 * Replays a RecordedTrace as an InstSource. Holds only a cursor:
 * cheap to construct, and many replays can share one trace across
 * threads.
 */
class TraceReplay final : public InstSource
{
  public:
    explicit TraceReplay(const RecordedTrace &trace) : trace(trace) {}

    bool halted() const override { return emitted == trace.numInsts; }
    DynInst step() override;
    std::size_t fill(DynInst *out, std::size_t n) override;
    std::uint64_t skip(std::uint64_t n, SkipSink &sink) override;

  private:
    /** The decode loop: up to @p n instructions to @p out
     *  (vm/emit.hh). */
    template <class Emit>
    std::uint64_t decode(std::uint64_t n, Emit out);

    const RecordedTrace &trace;
    std::size_t pos = 0;        ///< Word cursor.
    std::uint64_t emitted = 0;  ///< Doubles as the next seq number.
};

/**
 * Accumulates the workload-characterization statistics of Section 2.2:
 * instruction mix, fraction of local loads/stores, dynamic frame-size
 * distribution and per-static-function frame sizes, call depth.
 */
class StreamStats : public stats::Group
{
  public:
    explicit StreamStats(stats::Group *parent);

    /**
     * Feed one executed instruction: one more instruction, then
     * countAccess() or countCallReturnFrame(), the two rules that
     * also count what InstSource::skip reports.
     */
    void
    record(const DynInst &di)
    {
        ++instructions;
        const isa::OpInfo &info = isa::opInfo(di.inst.op);
        if (info.load || info.store)
            countAccess(di.inst, info.store, di.stackAccess);
        else if (isCallReturnFrame(di.inst))
            countCallReturnFrame(di.inst, di.nextPcIdx);
    }

    /** Count a load or store of @p inst (a store iff @p store) to
     *  the stack region iff @p stack. */
    void
    countAccess(const isa::Inst &inst, bool store, bool stack)
    {
        if (store) {
            ++stores;
            localStores += inst.localHint;
            stackStores += stack;
        } else {
            ++loads;
            localLoads += inst.localHint;
            stackLoads += stack;
        }
    }

    /** Call, return and frame-allocation bookkeeping for an
     *  isCallReturnFrame() instruction that went on to @p nextPcIdx. */
    void countCallReturnFrame(const isa::Inst &inst,
                              std::uint32_t nextPcIdx);

    stats::Scalar instructions;
    stats::Scalar loads;
    stats::Scalar stores;
    stats::Scalar localLoads;       ///< Annotation-marked local loads.
    stats::Scalar localStores;
    stats::Scalar stackLoads;       ///< Oracle stack-region loads.
    stats::Scalar stackStores;
    stats::Scalar calls;
    stats::Scalar returns;

    /** Dynamic frame sizes in words, one sample per allocation. */
    stats::Histogram frameWords;
    /** Call-depth at each call, one sample per call. */
    stats::Histogram callDepth;

    /** Fraction helpers for Fig. 2. */
    double loadFrac() const;        ///< loads / instructions
    double storeFrac() const;
    double localLoadFrac() const;   ///< local loads / loads
    double localStoreFrac() const;
    double localRefFrac() const;    ///< local refs / all refs

    /** Static frame sizes: function entry pc -> max frame words. */
    const std::map<std::uint32_t, std::uint32_t> &
    staticFrames() const
    {
        return staticFrameWords;
    }

    /** Mean static frame size in words (paper: ~7 words). */
    double meanStaticFrameWords() const;

  private:
    std::map<std::uint32_t, std::uint32_t> staticFrameWords;
    std::uint32_t curFunction = 0;  ///< Entry pc of innermost function.
    std::vector<std::uint32_t> functionStack;
    int depth = 0;
};

} // namespace ddsim::vm

#endif // DDSIM_VM_TRACE_HH_
