#include "vm/trace.hh"

#include <algorithm>

namespace ddsim::vm {

StreamStats::StreamStats(stats::Group *parent)
    : stats::Group(parent, "stream"),
      instructions(this, "instructions", "dynamic instructions executed"),
      loads(this, "loads", "dynamic loads"),
      stores(this, "stores", "dynamic stores"),
      localLoads(this, "local_loads", "loads marked local (annotation)"),
      localStores(this, "local_stores", "stores marked local (annotation)"),
      stackLoads(this, "stack_loads", "loads to the stack region (oracle)"),
      stackStores(this, "stack_stores",
                  "stores to the stack region (oracle)"),
      calls(this, "calls", "function calls"),
      returns(this, "returns", "function returns"),
      frameWords(this, "frame_words",
                 "dynamic frame size distribution (words)", 64, 1),
      callDepth(this, "call_depth", "call depth at each call", 64, 1)
{
}

void
StreamStats::countCallReturnFrame(const isa::Inst &inst,
                                  std::uint32_t nextPcIdx)
{
    if (isa::isCall(inst.op)) {
        ++calls;
        callDepth.sample(static_cast<std::uint64_t>(depth));
        ++depth;
        functionStack.push_back(curFunction);
        curFunction = nextPcIdx;
    } else if (isa::isReturn(inst)) {
        ++returns;
        if (depth > 0)
            --depth;
        if (!functionStack.empty()) {
            curFunction = functionStack.back();
            functionStack.pop_back();
        }
    }

    if (std::uint32_t bytes = frameAllocBytes(inst)) {
        std::uint32_t words = bytes / 4;
        frameWords.sample(words);
        auto &maxWords = staticFrameWords[curFunction];
        maxWords = std::max(maxWords, words);
    }
}

double
StreamStats::loadFrac() const
{
    return stats::safeRatio(loads.report(), instructions.report());
}

double
StreamStats::storeFrac() const
{
    return stats::safeRatio(stores.report(), instructions.report());
}

double
StreamStats::localLoadFrac() const
{
    return stats::safeRatio(localLoads.report(), loads.report());
}

double
StreamStats::localStoreFrac() const
{
    return stats::safeRatio(localStores.report(), stores.report());
}

double
StreamStats::localRefFrac() const
{
    return stats::safeRatio(
        localLoads.report() + localStores.report(),
        loads.report() + stores.report());
}

double
StreamStats::meanStaticFrameWords() const
{
    if (staticFrameWords.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &[pc, words] : staticFrameWords)
        sum += static_cast<double>(words);
    return sum / static_cast<double>(staticFrameWords.size());
}

} // namespace ddsim::vm
