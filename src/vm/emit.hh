/**
 * @file
 * The two things an InstSource's one execution or decode loop emits
 * per instruction: a full DynInst record (step, fill, run) or the
 * events skip() reports to a SkipSink. Each loop is a template over these,
 * so both outputs come from the same code; internal to the vm
 * sources.
 *
 * Per instruction a loop calls begin(), then access() if it is a
 * load or store or control() if isCallReturnFrame() holds for it,
 * then end(). Loops take an emitter by value, so that it stays in a
 * register.
 */

#ifndef DDSIM_VM_EMIT_HH_
#define DDSIM_VM_EMIT_HH_

#include "vm/trace.hh"

namespace ddsim::vm {

/** Writes each instruction, every field, to the next record of a
 *  buffer. */
class RecordEmit
{
  public:
    explicit RecordEmit(DynInst *out) : di(out) {}

    void
    begin(InstSeq seq, std::uint32_t pcIdx, const isa::Inst &inst)
    {
        di->seq = seq;
        di->pcIdx = pcIdx;
        di->inst = inst;
        di->effAddr = 0;
        di->accessSize = 0;
        di->stackAccess = false;
        di->baseVersion = 0;
    }

    void
    access(std::uint32_t, const isa::Inst &inst, Addr addr, bool,
           std::uint32_t baseVersion)
    {
        di->effAddr = addr;
        di->accessSize = isa::opInfo(inst.op).accessSize;
        di->stackAccess = layout::isStackAddr(addr);
        di->baseVersion = baseVersion;
    }

    void control(const isa::Inst &, std::uint32_t) {}

    void
    end(bool taken, std::uint32_t nextPcIdx)
    {
        di->taken = taken;
        di->nextPcIdx = nextPcIdx;
        ++di;
    }

  private:
    DynInst *di;
};

/** Reports each access and control event to a SkipSink; no record. */
class SinkEmit
{
  public:
    explicit SinkEmit(SkipSink &sink) : sink(sink) {}

    void begin(InstSeq, std::uint32_t, const isa::Inst &) {}

    void
    access(std::uint32_t pcIdx, const isa::Inst &inst, Addr addr,
           bool store, std::uint32_t)
    {
        sink.access(pcIdx, inst, addr, store, layout::isStackAddr(addr));
    }

    void
    control(const isa::Inst &inst, std::uint32_t nextPcIdx)
    {
        sink.control(inst, nextPcIdx);
    }

    void end(bool, std::uint32_t) {}

  private:
    SkipSink &sink;
};

} // namespace ddsim::vm

#endif // DDSIM_VM_EMIT_HH_
