/**
 * @file
 * RecordedTrace / TraceReplay: record a program's dynamic instruction
 * stream once, replay it per configuration point. The replayed
 * DynInst records are field-for-field identical to what a live
 * Executor would hand the pipeline (asserted by the differential
 * suite), so the timing model is bit-identical either way.
 */

#include "vm/trace.hh"

#include "prog/program.hh"
#include "util/log.hh"
#include "vm/executor.hh"

namespace ddsim::vm {

using isa::OpCode;

RecordedTrace
RecordedTrace::record(const prog::Program &program,
                      std::uint64_t maxInsts)
{
    RecordedTrace t;
    t.prog = &program;

    Executor exec(program);
    while (!exec.halted() &&
           (maxInsts == 0 || t.numInsts < maxInsts)) {
        DynInst di = exec.step();
        if (di.pcIdx & ~PcMask)
            fatal("RecordedTrace: text index 0x%x needs more than 29 "
                  "bits", di.pcIdx);

        std::uint32_t w0 = di.pcIdx;
        if (di.taken)
            w0 |= TakenBit;
        // Register-indirect jumps are the only instructions whose
        // next pc cannot be re-derived from the program text.
        bool indirect =
            di.inst.op == OpCode::JR || di.inst.op == OpCode::JALR;
        if (indirect)
            w0 |= IndirectBit;
        if (di.isMem())
            w0 |= MemBit;
        t.words.push_back(w0);
        if (di.isMem()) {
            t.words.push_back(di.effAddr);
            t.words.push_back(di.baseVersion);
        }
        if (indirect)
            t.words.push_back(di.nextPcIdx);
        ++t.numInsts;
    }
    t.words.shrink_to_fit();
    return t;
}

DynInst
TraceReplay::step()
{
    if (halted())
        panic("TraceReplay::step() called on an exhausted trace");
    DynInst di;
    fill(&di, 1);
    return di;
}

std::size_t
TraceReplay::fill(DynInst *out, std::size_t n)
{
    if (n > trace.numInsts - emitted)
        n = static_cast<std::size_t>(trace.numInsts - emitted);
    const std::uint32_t *w = trace.words.data();
    const prog::Program &program = *trace.prog;
    std::size_t p = pos;
    for (std::size_t k = 0; k < n; ++k) {
        DynInst &di = out[k];
        std::uint32_t w0 = w[p++];
        std::uint32_t pcIdx = w0 & RecordedTrace::PcMask;
        di.seq = emitted + k;
        di.pcIdx = pcIdx;
        di.inst = program.fetch(pcIdx);
        di.taken = (w0 & RecordedTrace::TakenBit) != 0;
        if (w0 & RecordedTrace::MemBit) {
            di.effAddr = w[p];
            di.baseVersion = w[p + 1];
            p += 2;
            di.accessSize = isa::opInfo(di.inst.op).accessSize;
            di.stackAccess = layout::isStackAddr(di.effAddr);
        } else {
            di.effAddr = 0;
            di.baseVersion = 0;
            di.accessSize = 0;
            di.stackAccess = false;
        }
        if (w0 & RecordedTrace::IndirectBit)
            di.nextPcIdx = w[p++];
        else if (di.inst.op == OpCode::J || di.inst.op == OpCode::JAL)
            di.nextPcIdx = di.inst.target;
        else if (di.taken)
            di.nextPcIdx = static_cast<std::uint32_t>(
                static_cast<std::int64_t>(pcIdx) + 1 + di.inst.imm);
        else
            di.nextPcIdx = pcIdx + 1;
    }
    pos = p;
    emitted += n;
    return n;
}

} // namespace ddsim::vm
