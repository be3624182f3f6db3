#include "analysis/analyzer.hh"

#include <algorithm>
#include <deque>

#include "isa/disasm.hh"
#include "isa/encode.hh"
#include "isa/opcode.hh"
#include "isa/regs.hh"
#include "util/log.hh"

namespace ddsim::analysis {

using isa::Inst;
using isa::OpCode;
namespace reg = isa::reg;

const char *
verdictName(isa::Verdict v)
{
    switch (v) {
      case isa::Verdict::Local: return "local";
      case isa::Verdict::NonLocal: return "nonlocal";
      case isa::Verdict::Ambiguous: return "ambiguous";
    }
    return "?";
}

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

void
Mix::add(isa::Verdict v)
{
    switch (v) {
      case isa::Verdict::Local: ++local; break;
      case isa::Verdict::NonLocal: ++nonLocal; break;
      case isa::Verdict::Ambiguous: ++ambiguous; break;
    }
}

std::size_t
AnalysisResult::count(Severity s) const
{
    return static_cast<std::size_t>(
        std::count_if(diagnostics.begin(), diagnostics.end(),
                      [s](const Diagnostic &d) {
                          return d.severity == s;
                      }));
}

namespace {

std::string
functionName(const prog::Program &prog, std::size_t entry)
{
    for (const auto &[name, idx] : prog.symbols())
        if (idx == entry)
            return name;
    return format("fn@%zu", entry);
}

/** Joined abstract a0..a3 values per callee entry index. */
using ArgMap = std::map<std::size_t, std::array<AbsValue, 4>>;
/** Joined abstract v0/v1 at the return sites of each function. */
using RetMap = std::map<std::size_t, std::array<AbsValue, 2>>;

template <std::size_t N>
std::array<AbsValue, N>
bottoms()
{
    std::array<AbsValue, N> a;
    a.fill(AbsValue::bottom());
    return a;
}

/**
 * Translate an abstract value across a function boundary (a0..a3 at
 * a call site, v0/v1 at a return site). StackOff offsets are
 * entry-sp-relative *per function*, so an exact offset in one frame's
 * coordinate system is meaningless — and dangerously misleading — in
 * another's. Degrade to StackDerived: still provably a stack address,
 * no longer an exact slot.
 */
AbsValue
crossFunctionBoundary(const AbsValue &v)
{
    return v.isStackOff() ? AbsValue::stackDerived() : v;
}

/** Analysis of one function: fixpoint, then a reporting walk. */
class FunctionAnalyzer
{
  public:
    FunctionAnalyzer(const prog::Program &prog, std::size_t entry,
                     std::vector<Diagnostic> &diags,
                     const ArgMap &argsIn, const RetMap &retsIn)
        : prog(prog), diags(diags), retsIn(retsIn)
    {
        info.entry = entry;
        info.name = functionName(prog, entry);
        info.cfg = buildCfg(prog, entry);
        entryState = RegState::functionEntry();
        if (auto it = argsIn.find(entry); it != argsIn.end())
            for (int i = 0; i < 4; ++i) {
                const AbsValue &v =
                    it->second[static_cast<std::size_t>(i)];
                if (v.kind != ValueKind::Bottom)
                    entryState.set(
                        static_cast<RegId>(reg::a0 + i), v);
            }
    }

    /**
     * Analyze; when @p callArgs / @p retVals are non-null,
     * additionally join the abstract a0..a3 at every jal site (keyed
     * by callee) and the abstract v0/v1 at every return site (keyed
     * by this function) into them.
     */
    FunctionInfo run(ArgMap *callArgs, RetMap *retVals);

  private:
    void fixpoint();
    void reportBlock(const BasicBlock &bb, RegState state);
    void transfer(RegState &state, std::size_t idx, bool report);
    void checkMem(const RegState &state, const Inst &inst,
                  std::size_t idx);
    void checkReturn(const RegState &state, const Inst &inst,
                     std::size_t idx);
    void trackFrame(const RegState &state, std::size_t idx);
    void checkMerges();

    void diag(Severity sev, const char *id, std::size_t idx,
              std::string message)
    {
        diags.push_back({sev, id, idx, info.name,
                         std::move(message)});
    }

    /** "'lw t0, 8(sp) !local'" for messages. */
    std::string
    dis(std::size_t idx) const
    {
        return "'" + isa::disassemble(prog.fetch(idx)) + "'";
    }

    const prog::Program &prog;
    std::vector<Diagnostic> &diags;
    const RetMap &retsIn;
    RetMap *retCollect = nullptr;
    FunctionInfo info;
    RegState entryState;
    std::vector<RegState> inStates;
    std::vector<RegState> outStates;
    bool spLostReported = false;
    bool spInexactReported = false;
    bool bigFrameReported = false;
};

void
FunctionAnalyzer::fixpoint()
{
    const auto &blocks = info.cfg.blocks;
    inStates.assign(blocks.size(), RegState());
    outStates.assign(blocks.size(), RegState());
    inStates[0] = entryState;

    std::deque<int> work{0};
    std::vector<bool> queued(blocks.size(), false);
    queued[0] = true;
    while (!work.empty()) {
        int b = work.front();
        work.pop_front();
        queued[static_cast<std::size_t>(b)] = false;

        const BasicBlock &bb = blocks[static_cast<std::size_t>(b)];
        RegState st = inStates[static_cast<std::size_t>(b)];
        for (std::size_t idx = bb.first; idx <= bb.last; ++idx)
            transfer(st, idx, /*report=*/false);
        outStates[static_cast<std::size_t>(b)] = st;

        for (int s : bb.succs) {
            RegState joined =
                joinStates(inStates[static_cast<std::size_t>(s)], st);
            if (joined == inStates[static_cast<std::size_t>(s)])
                continue;
            inStates[static_cast<std::size_t>(s)] = std::move(joined);
            if (!queued[static_cast<std::size_t>(s)]) {
                queued[static_cast<std::size_t>(s)] = true;
                work.push_back(s);
            }
        }
    }
}

void
FunctionAnalyzer::transfer(RegState &state, std::size_t idx,
                           bool report)
{
    const Inst &inst = prog.fetch(idx);
    if (report) {
        if (isa::isMem(inst.op))
            checkMem(state, inst, idx);
        if (isa::isReturn(inst))
            checkReturn(state, inst, idx);
    }

    AbsValue spBefore = state.get(reg::sp);
    applyInst(state, inst);
    // Interprocedural refinement: replace the clobbered v0/v1 with
    // the join of the callee's return-site values, when known.
    if (inst.op == OpCode::JAL) {
        if (auto it = retsIn.find(inst.target); it != retsIn.end())
            for (int i = 0; i < 2; ++i) {
                const AbsValue &v =
                    it->second[static_cast<std::size_t>(i)];
                if (v.kind != ValueKind::Bottom)
                    state.set(static_cast<RegId>(reg::v0 + i), v);
            }
    }
    const AbsValue &spAfter = state.get(reg::sp);
    if (spAfter != spBefore && !spAfter.isStackOff()) {
        if (spAfter.kind == ValueKind::StackDerived) {
            // Alloca-style dynamic adjustment: sp moved by a
            // statically unknown amount but is still rooted in the
            // stack. Accesses stay classifiable (StackDerived bases
            // are Local); only the exact-offset frame checks and the
            // frame-size bound are forfeit.
            if (report && !spInexactReported) {
                spInexactReported = true;
                diag(Severity::Warning, "sp-inexact", idx,
                     format("sp adjusted by a statically unknown "
                            "amount at %s; frame size is dynamic",
                            dis(idx).c_str()));
            }
        } else {
            if (report && !spLostReported) {
                spLostReported = true;
                diag(Severity::Error, "sp-lost", idx,
                     format("sp is no longer a known stack offset "
                            "after %s (now %s)",
                            dis(idx).c_str(), spAfter.str().c_str()));
            }
            // Pin sp to "somewhere on the stack" so one bad write
            // does not cascade into a diagnostic per downstream
            // instruction.
            state.set(reg::sp, AbsValue::stackDerived());
        }
    }
    if (report)
        trackFrame(state, idx);
}

void
FunctionAnalyzer::checkMem(const RegState &state, const Inst &inst,
                           std::size_t idx)
{
    const AbsValue &base = state.get(inst.rs);

    MemAccess acc;
    acc.instIdx = idx;
    acc.load = isa::isLoad(inst.op);
    acc.annotatedLocal = inst.localHint;

    if (base.isStackOff()) {
        acc.verdict = isa::Verdict::Local;
        acc.spOffset = base.n + inst.imm;
        acc.spOffsetKnown = true;
    } else if (base.isConst()) {
        acc.verdict =
            layout::isStackAddr(base.word() +
                                static_cast<Word>(inst.imm))
                ? isa::Verdict::Local
                : isa::Verdict::NonLocal;
    } else if (base.kind == ValueKind::NonStack) {
        acc.verdict = isa::Verdict::NonLocal;
    } else if (base.kind == ValueKind::StackDerived) {
        // Rooted-pointer assumption (value.hh): arithmetic rooted at
        // sp stays inside the stack region, so a stack-derived base
        // with an unknown offset is still a local access — it just
        // forfeits the exact-offset frame checks below. The Oracle
        // cross-check in tests/test_analysis.cpp validates this
        // dynamically on every workload.
        acc.verdict = isa::Verdict::Local;
    } else {
        acc.verdict = isa::Verdict::Ambiguous;
    }

    if (acc.spOffsetKnown) {
        const AbsValue &sp = state.get(reg::sp);
        auto off = static_cast<long long>(acc.spOffset);
        if (sp.isStackOff() && acc.spOffset < sp.n)
            diag(Severity::Error, "access-below-frame", idx,
                 format("access at entry%+lld is below the live "
                        "frame (sp at entry%+lld): %s",
                        off, static_cast<long long>(sp.n),
                        dis(idx).c_str()));
        else if (acc.spOffset >= 0)
            diag(Severity::Warning, "access-above-entry", idx,
                 format("access at entry%+lld reaches the caller's "
                        "frame: %s",
                        off, dis(idx).c_str()));
    }

    if (acc.annotatedLocal && acc.verdict == isa::Verdict::NonLocal)
        diag(Severity::Error, "annotation-local-but-nonlocal", idx,
             format("annotated !local but provably non-local "
                    "(base %s): %s",
                    base.str().c_str(), dis(idx).c_str()));
    else if (!acc.annotatedLocal && acc.verdict == isa::Verdict::Local)
        diag(Severity::Warning, "annotation-missing-local", idx,
             format("provably local but not annotated !local: %s",
                    dis(idx).c_str()));

    info.accesses.push_back(acc);
}

void
FunctionAnalyzer::checkReturn(const RegState &state, const Inst &,
                              std::size_t idx)
{
    if (retCollect != nullptr) {
        auto &rets =
            retCollect->try_emplace(info.entry, bottoms<2>())
                .first->second;
        for (int i = 0; i < 2; ++i)
            rets[static_cast<std::size_t>(i)] = join(
                rets[static_cast<std::size_t>(i)],
                crossFunctionBoundary(state.get(
                    static_cast<RegId>(reg::v0 + i))));
    }
    const AbsValue &sp = state.get(reg::sp);
    if (sp.isStackOff() && sp.n != 0)
        diag(Severity::Error, "sp-unbalanced-return", idx,
             format("returns with sp at entry%+lld bytes: %s",
                    static_cast<long long>(sp.n), dis(idx).c_str()));
    else if (!sp.isStackOff() && !spLostReported)
        diag(Severity::Error, "sp-unbalanced-return", idx,
             format("returns with sp at an unknown depth: %s",
                    dis(idx).c_str()));
}

void
FunctionAnalyzer::trackFrame(const RegState &state, std::size_t idx)
{
    const AbsValue &sp = state.get(reg::sp);
    if (!sp.isStackOff()) {
        info.frameKnown = false;
        return;
    }
    if (sp.n >= 0)
        return;
    auto bytes = static_cast<std::size_t>(-sp.n);
    info.frameWords =
        std::max(info.frameWords, (bytes + WordBytes - 1) / WordBytes);
    if (bytes > static_cast<std::size_t>(isa::MemOffsetMax) &&
        !bigFrameReported) {
        bigFrameReported = true;
        diag(Severity::Note, "frame-exceeds-offset-field", idx,
             format("frame of %zu bytes exceeds the 15-bit offset "
                    "field; needs a secondary base register "
                    "(paper footnote 6)",
                    bytes));
    }
}

void
FunctionAnalyzer::checkMerges()
{
    for (const BasicBlock &bb : info.cfg.blocks) {
        if (bb.preds.size() < 2 ||
            !inStates[static_cast<std::size_t>(bb.id)].reachable)
            continue;
        bool haveDepth = false;
        std::int64_t depth = 0;
        for (int p : bb.preds) {
            const RegState &out =
                outStates[static_cast<std::size_t>(p)];
            if (!out.reachable || !out.get(reg::sp).isStackOff())
                continue;
            std::int64_t d = out.get(reg::sp).n;
            if (!haveDepth) {
                haveDepth = true;
                depth = d;
            } else if (d != depth) {
                diag(Severity::Error, "sp-merge-mismatch", bb.first,
                     format("sp depth differs across predecessors "
                            "(entry%+lld vs entry%+lld) at %s",
                            static_cast<long long>(depth),
                            static_cast<long long>(d),
                            dis(bb.first).c_str()));
                break;
            }
        }
    }
}

FunctionInfo
FunctionAnalyzer::run(ArgMap *callArgs, RetMap *retVals)
{
    retCollect = retVals;
    fixpoint();

    for (const BasicBlock &bb : info.cfg.blocks) {
        RegState st = inStates[static_cast<std::size_t>(bb.id)];
        if (!st.reachable)
            continue;
        for (std::size_t idx = bb.first; idx <= bb.last; ++idx) {
            const Inst &inst = prog.fetch(idx);
            if (callArgs != nullptr && inst.op == OpCode::JAL &&
                inst.target < prog.textSize()) {
                auto &args =
                    callArgs->try_emplace(inst.target, bottoms<4>())
                        .first->second;
                for (int i = 0; i < 4; ++i)
                    args[static_cast<std::size_t>(i)] = join(
                        args[static_cast<std::size_t>(i)],
                        crossFunctionBoundary(st.get(
                            static_cast<RegId>(reg::a0 + i))));
            }
            transfer(st, idx, /*report=*/true);
        }
    }
    checkMerges();

    for (std::size_t idx : info.cfg.indirectAt)
        diag(Severity::Warning, "unresolved-indirect-jump", idx,
             format("statically unresolvable indirect jump: %s",
                    dis(idx).c_str()));
    for (std::size_t idx : info.cfg.outOfTextAt)
        diag(Severity::Error, "control-flow-out-of-text", idx,
             format("control transfer leaves the text segment: %s",
                    dis(idx).c_str()));

    return std::move(info);
}

} // namespace

AnalysisResult
analyze(const prog::Program &prog)
{
    AnalysisResult res;
    res.program = prog.name();
    if (prog.textSize() == 0)
        return res;

    // Context-insensitive interprocedural argument propagation:
    // analyze with Top arguments first, then re-analyze with the
    // join of the abstract a0..a3 seen at every jal site, until the
    // argument map stops widening. The refinement is sound only when
    // every call site is visible, so any indirect jump disables it.
    const std::vector<std::size_t> entries = discoverFunctions(prog);
    ArgMap argsIn;
    RetMap retsIn;
    for (int round = 0; round < 8; ++round) {
        res.functions.clear();
        res.diagnostics.clear();
        ArgMap argsOut;
        RetMap retsOut;
        bool indirect = false;
        for (std::size_t entry : entries) {
            res.functions.push_back(
                FunctionAnalyzer(prog, entry, res.diagnostics,
                                 argsIn, retsIn)
                    .run(&argsOut, &retsOut));
            indirect |= !res.functions.back().cfg.indirectAt.empty();
        }
        if (indirect || (argsOut == argsIn && retsOut == retsIn))
            break;
        argsIn = std::move(argsOut);
        retsIn = std::move(retsOut);
    }

    // Merge per-function verdicts; shared code with conflicting
    // verdicts degrades to Ambiguous.
    for (const FunctionInfo &fn : res.functions)
        for (const MemAccess &acc : fn.accesses) {
            auto [it, inserted] =
                res.verdicts.emplace(acc.instIdx, acc.verdict);
            if (!inserted && it->second != acc.verdict)
                it->second = isa::Verdict::Ambiguous;
        }

    for (const auto &[idx, verdict] : res.verdicts)
        (isa::isLoad(prog.fetch(idx).op) ? res.loads : res.stores)
            .add(verdict);

    std::sort(res.diagnostics.begin(), res.diagnostics.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.instIdx != b.instIdx)
                      return a.instIdx < b.instIdx;
                  if (a.severity != b.severity)
                      return a.severity > b.severity;
                  return a.id < b.id;
              });
    return res;
}

} // namespace ddsim::analysis
