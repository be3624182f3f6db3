/**
 * @file
 * RecordedTrace / TraceReplay: record a program's dynamic instruction
 * stream once, replay it per configuration point. The replayed
 * DynInst records are field-for-field identical to what a live
 * Executor would hand the pipeline (asserted by the differential
 * suite), so the timing model is bit-identical either way.
 */

#include "vm/trace.hh"

#include <algorithm>
#include <array>
#include <span>

#include "prog/program.hh"
#include "util/log.hh"
#include "vm/emit.hh"
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
    std::array<DynInst, 64> block;
    for (;;) {
        std::size_t want = block.size();
        if (maxInsts != 0)
            want = static_cast<std::size_t>(
                std::min<std::uint64_t>(want, maxInsts - t.numInsts));
        std::size_t got = exec.fill(block.data(), want);
        if (got == 0)
            break;
        for (const DynInst &di : std::span(block.data(), got)) {
            if (di.pcIdx & ~PcMask)
                fatal("RecordedTrace: text index 0x%x needs more than "
                      "29 bits", di.pcIdx);

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
        }
        t.numInsts += got;
    }
    t.words.shrink_to_fit();
    return t;
}

template <class Emit>
std::uint64_t
TraceReplay::decode(std::uint64_t n, Emit out)
{
    if (n > trace.numInsts - emitted)
        n = trace.numInsts - emitted;
    const std::uint32_t *w = trace.words.data();
    const prog::Program &program = *trace.prog;
    std::size_t p = pos;
    const InstSeq first = emitted;
    for (std::uint64_t k = 0; k < n; ++k) {
        std::uint32_t w0 = w[p++];
        std::uint32_t pcIdx = w0 & RecordedTrace::PcMask;
        const isa::Inst &inst = program.fetch(pcIdx);
        bool taken = (w0 & RecordedTrace::TakenBit) != 0;
        bool mem = (w0 & RecordedTrace::MemBit) != 0;
        out.begin(first + k, pcIdx, inst);
        if (mem) {
            out.access(pcIdx, inst, w[p], isa::isStore(inst.op), w[p + 1]);
            p += 2;
        }
        std::uint32_t next;
        if (w0 & RecordedTrace::IndirectBit)
            next = w[p++];
        else if (inst.op == OpCode::J || inst.op == OpCode::JAL)
            next = inst.target;
        else if (taken)
            next = static_cast<std::uint32_t>(
                static_cast<std::int64_t>(pcIdx) + 1 + inst.imm);
        else
            next = pcIdx + 1;
        if (!mem && isCallReturnFrame(inst))
            out.control(inst, next);
        out.end(taken, next);
    }
    pos = p;
    emitted += n;
    return n;
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
    return static_cast<std::size_t>(decode(n, RecordEmit(out)));
}

std::uint64_t
TraceReplay::skip(std::uint64_t n, SkipSink &sink)
{
    return decode(n, SinkEmit(sink));
}

} // namespace ddsim::vm
