#include "analysis/annotate.hh"

#include "isa/encode.hh"
#include "isa/opcode.hh"

namespace ddsim::analysis {

const char *
hintPolicyName(HintPolicy p)
{
    switch (p) {
      case HintPolicy::Safe: return "safe";
      case HintPolicy::Speculative: return "speculative";
      case HintPolicy::Hybrid: return "hybrid";
    }
    return "?";
}

std::optional<HintPolicy>
hintPolicyFromName(std::string_view name)
{
    for (HintPolicy p : {HintPolicy::Safe, HintPolicy::Speculative,
                         HintPolicy::Hybrid}) {
        if (name == hintPolicyName(p))
            return p;
    }
    return std::nullopt;
}

prog::Program
annotateProgram(const prog::Program &prog, const AnalysisResult &res,
                HintPolicy policy, AnnotateStats *stats)
{
    prog::Program out = prog;
    AnnotateStats st;
    for (const auto &[idx, verdict] : res.verdicts) {
        const isa::Inst &inst = prog.fetch(
            static_cast<std::uint32_t>(idx));
        ++st.memInsts;

        bool hint = inst.localHint;
        switch (verdict) {
          case isa::Verdict::Local:
            hint = true;
            break;
          case isa::Verdict::NonLocal:
            hint = false;
            break;
          case isa::Verdict::Ambiguous:
            ++st.ambiguous;
            if (policy == HintPolicy::Safe)
                hint = false;
            else if (policy == HintPolicy::Speculative)
                hint = true;
            // Hybrid: keep the existing bit as the predictor seed.
            break;
        }

        (hint ? st.hinted : st.cleared)++;
        if (hint == inst.localHint)
            continue;
        ++st.changed;
        isa::Inst rewritten = inst;
        rewritten.localHint = hint;
        out.patch(static_cast<std::uint32_t>(idx),
                  isa::encode(rewritten));
    }
    if (stats != nullptr)
        *stats = st;
    return out;
}

prog::Program
annotateProgram(const prog::Program &prog, HintPolicy policy,
                AnnotateStats *stats)
{
    return annotateProgram(prog, analyze(prog), policy, stats);
}

} // namespace ddsim::analysis
