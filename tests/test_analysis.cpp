/**
 * @file
 * Static analyzer tests: the abstract value lattice, CFG construction
 * on hand-written programs, sp-tracking joins at merge points, every
 * diagnostic firing on a crafted negative case, and — the load-bearing
 * check — agreement between the static classification and the runtime
 * Oracle classifier's per-instruction verdicts on full workload runs.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/analyzer.hh"
#include "analysis/annotate.hh"
#include "analysis/cfg.hh"
#include "analysis/report.hh"
#include "analysis/value.hh"
#include "prog/asm_parser.hh"
#include "vm/executor.hh"
#include "workloads/common.hh"

using namespace ddsim;
using namespace ddsim::analysis;

namespace {

AbsValue
top()
{
    return AbsValue::top();
}

bool
hasDiag(const AnalysisResult &res, const std::string &id)
{
    for (const Diagnostic &d : res.diagnostics)
        if (d.id == id)
            return true;
    return false;
}

std::string
diagText(const AnalysisResult &res)
{
    return textReport(res);
}

} // namespace

// ---- Abstract value lattice -----------------------------------------------

TEST(AbsValue, JoinRules)
{
    AbsValue c5 = AbsValue::konst(5);
    AbsValue c9 = AbsValue::konst(9);
    AbsValue s0 = AbsValue::stackOff(0);
    AbsValue s8 = AbsValue::stackOff(-8);

    EXPECT_EQ(join(c5, c5), c5);
    EXPECT_EQ(join(AbsValue::bottom(), c5), c5);
    EXPECT_EQ(join(c5, AbsValue::bottom()), c5);
    // Distinct non-stack constants stay provably non-stack.
    EXPECT_EQ(join(c5, c9).kind, ValueKind::NonStack);
    // Distinct stack offsets degrade to "somewhere on the stack".
    EXPECT_EQ(join(s0, s8).kind, ValueKind::StackDerived);
    // Stack vs non-stack is unrecoverable.
    EXPECT_EQ(join(s0, c5).kind, ValueKind::Top);
    EXPECT_EQ(join(AbsValue::nonStack(), c5).kind,
              ValueKind::NonStack);
}

TEST(AbsValue, ArithmeticTransfer)
{
    AbsValue sp = AbsValue::stackOff(0);
    // Exact sp arithmetic stays exact, both directions.
    EXPECT_EQ(absAdd(sp, AbsValue::konst(-32)),
              AbsValue::stackOff(-32));
    EXPECT_EQ(absSub(sp, AbsValue::konst(44)),
              AbsValue::stackOff(-44));
    EXPECT_EQ(absSub(AbsValue::stackOff(-8), sp), AbsValue::konst(-8));
    // sp plus an unknown index is still a stack address.
    EXPECT_EQ(absAdd(sp, top()).kind, ValueKind::StackDerived);
    // Arithmetic rooted at a heap constant stays non-stack.
    AbsValue heap = AbsValue::konst(
        static_cast<std::int64_t>(layout::HeapBase));
    EXPECT_EQ(absAdd(heap, top()).kind, ValueKind::NonStack);
    EXPECT_EQ(absAdd(AbsValue::nonStack(), top()).kind,
              ValueKind::NonStack);
    // A small constant is not a pointer root.
    EXPECT_EQ(absAdd(AbsValue::konst(8), top()).kind, ValueKind::Top);
    // Constant folding wraps at 32 bits.
    EXPECT_EQ(absAdd(AbsValue::konst(0x7fffffff), AbsValue::konst(1)),
              AbsValue::konst(INT32_MIN));
}

TEST(AbsValue, RegStateBasics)
{
    RegState st = RegState::functionEntry();
    EXPECT_TRUE(st.reachable);
    EXPECT_EQ(st.get(isa::reg::sp), AbsValue::stackOff(0));
    EXPECT_EQ(st.get(isa::reg::zero), AbsValue::konst(0));
    // r0 is hard-wired.
    st.set(isa::reg::zero, top());
    EXPECT_EQ(st.get(isa::reg::zero), AbsValue::konst(0));
}

// ---- CFG construction -----------------------------------------------------

TEST(Cfg, StraightLineIsOneBlock)
{
    prog::Program p = prog::assemble(R"(
main:
        addi t0, zero, 1
        addi t1, t0, 2
        halt
)");
    Cfg cfg = buildCfg(p, p.entry());
    ASSERT_EQ(cfg.blocks.size(), 1u);
    EXPECT_EQ(cfg.blocks[0].first, 0u);
    EXPECT_EQ(cfg.blocks[0].last, 2u);
    EXPECT_TRUE(cfg.blocks[0].succs.empty());
}

TEST(Cfg, DiamondHasFourBlocksAndMergedEdges)
{
    prog::Program p = prog::assemble(R"(
main:
        bgtz a0, then
        addi t0, zero, 1
        j merge
then:
        addi t0, zero, 2
merge:
        print t0
        halt
)");
    Cfg cfg = buildCfg(p, p.entry());
    ASSERT_EQ(cfg.blocks.size(), 4u);
    const BasicBlock &entry = cfg.blocks[0];
    ASSERT_EQ(entry.succs.size(), 2u); // fall-through + taken
    int mergeId = cfg.blockContaining(4);
    ASSERT_GE(mergeId, 0);
    EXPECT_EQ(cfg.blocks[static_cast<std::size_t>(mergeId)]
                  .preds.size(),
              2u);
}

TEST(Cfg, LoopHasBackEdge)
{
    prog::Program p = prog::assemble(R"(
main:
        addi t0, zero, 4
loop:
        addi t0, t0, -1
        bgtz t0, loop
        halt
)");
    Cfg cfg = buildCfg(p, p.entry());
    int header = cfg.blockContaining(1);
    int latch = cfg.blockContaining(2);
    ASSERT_GE(header, 0);
    const auto &succs =
        cfg.blocks[static_cast<std::size_t>(latch)].succs;
    EXPECT_NE(std::find(succs.begin(), succs.end(), header),
              succs.end());
}

TEST(Cfg, CallsEndBlocksButEdgeToFallThrough)
{
    prog::Program p = prog::assemble(R"(
main:
        jal helper
        print v0
        halt
helper:
        addi v0, zero, 7
        ret
)");
    Cfg cfg = buildCfg(p, p.entry());
    // jal ends its block; the successor is the fall-through, not the
    // callee.
    int callBlock = cfg.blockContaining(0);
    const auto &succs =
        cfg.blocks[static_cast<std::size_t>(callBlock)].succs;
    ASSERT_EQ(succs.size(), 1u);
    EXPECT_EQ(cfg.blocks[static_cast<std::size_t>(succs[0])].first,
              1u);
    ASSERT_EQ(cfg.callTargets.size(), 1u);
    EXPECT_EQ(cfg.callTargets[0], p.symbol("helper"));

    auto fns = discoverFunctions(p);
    ASSERT_EQ(fns.size(), 2u);
    EXPECT_EQ(fns[0], p.entry());
    EXPECT_EQ(fns[1], p.symbol("helper"));
}

// ---- sp tracking across merge points --------------------------------------

TEST(Analyzer, BalancedDiamondKeepsExactSp)
{
    prog::Program p = prog::assemble(R"(
main:
        addi sp, sp, -16
        bgtz a0, then
        sw zero, 0(sp) !local
        j merge
then:
        sw zero, 4(sp) !local
merge:
        lw t0, 0(sp) !local
        addi sp, sp, 16
        halt
)");
    AnalysisResult res = analyze(p);
    EXPECT_EQ(res.errors(), 0u) << diagText(res);
    EXPECT_EQ(res.warnings(), 0u) << diagText(res);
    ASSERT_EQ(res.functions.size(), 1u);
    EXPECT_TRUE(res.functions[0].frameKnown);
    EXPECT_EQ(res.functions[0].frameWords, 4u);
    // All three accesses provably local.
    EXPECT_EQ(res.loads.local, 1u);
    EXPECT_EQ(res.stores.local, 2u);
    EXPECT_EQ(res.loads.ambiguous + res.stores.ambiguous, 0u);
}

TEST(Analyzer, MergeOfUnequalDepthsIsDiagnosed)
{
    prog::Program p = prog::assemble(R"(
main:
        bgtz a0, deep
        addi sp, sp, -8
        j merge
deep:
        addi sp, sp, -16
merge:
        addi sp, sp, 16
        halt
)");
    AnalysisResult res = analyze(p);
    EXPECT_TRUE(hasDiag(res, "sp-merge-mismatch")) << diagText(res);
    EXPECT_GT(res.errors(), 0u);
}

// ---- diagnostics, one crafted negative case each --------------------------

TEST(Diagnostics, SpLost)
{
    // sp overwritten with a provably non-stack value: genuinely lost.
    prog::Program p = prog::assemble(R"(
main:
        move sp, ra
        halt
)");
    AnalysisResult res = analyze(p);
    EXPECT_TRUE(hasDiag(res, "sp-lost")) << diagText(res);
}

TEST(Diagnostics, SpInexactOnDynamicAdjustment)
{
    // sp moved by an unknown amount stays stack-rooted: that is the
    // alloca idiom, a warning (sp-inexact), not a lost sp.
    prog::Program p = prog::assemble(R"(
main:
        add sp, sp, a0
        halt
)");
    AnalysisResult res = analyze(p);
    EXPECT_TRUE(hasDiag(res, "sp-inexact")) << diagText(res);
    EXPECT_FALSE(hasDiag(res, "sp-lost")) << diagText(res);
    EXPECT_EQ(res.errors(), 0u) << diagText(res);
}

TEST(Diagnostics, UnbalancedReturn)
{
    prog::Program p = prog::assemble(R"(
main:
        jal leaf
        halt
leaf:
        addi sp, sp, -8
        ret
)");
    AnalysisResult res = analyze(p);
    EXPECT_TRUE(hasDiag(res, "sp-unbalanced-return"))
        << diagText(res);
}

TEST(Diagnostics, AccessBelowFrame)
{
    prog::Program p = prog::assemble(R"(
main:
        addi sp, sp, -8
        sw zero, -4(sp) !local
        addi sp, sp, 8
        halt
)");
    AnalysisResult res = analyze(p);
    EXPECT_TRUE(hasDiag(res, "access-below-frame")) << diagText(res);
}

TEST(Diagnostics, AccessAboveEntry)
{
    prog::Program p = prog::assemble(R"(
main:
        jal leaf
        halt
leaf:
        lw t0, 4(sp)
        ret
)");
    AnalysisResult res = analyze(p);
    EXPECT_TRUE(hasDiag(res, "access-above-entry")) << diagText(res);
}

TEST(Diagnostics, AnnotatedLocalButProvablyNonLocal)
{
    prog::Program p = prog::assemble(R"(
main:
        sw zero, 0(gp) !local
        halt
)");
    AnalysisResult res = analyze(p);
    EXPECT_TRUE(hasDiag(res, "annotation-local-but-nonlocal"))
        << diagText(res);
    EXPECT_GT(res.errors(), 0u);
}

TEST(Diagnostics, ProvablyLocalButNotAnnotated)
{
    prog::Program p = prog::assemble(R"(
main:
        addi sp, sp, -8
        sw zero, 0(sp)
        addi sp, sp, 8
        halt
)");
    AnalysisResult res = analyze(p);
    EXPECT_TRUE(hasDiag(res, "annotation-missing-local"))
        << diagText(res);
    EXPECT_EQ(res.errors(), 0u); // a warning, not an error
}

TEST(Diagnostics, UnresolvedIndirectJump)
{
    prog::Program p = prog::assemble(R"(
main:
        addi t0, zero, 0
        jr t0
)");
    AnalysisResult res = analyze(p);
    EXPECT_TRUE(hasDiag(res, "unresolved-indirect-jump"))
        << diagText(res);
}

TEST(Diagnostics, ControlFlowOutOfText)
{
    prog::Program p = prog::assemble(R"(
main:
        j 999
)");
    AnalysisResult res = analyze(p);
    EXPECT_TRUE(hasDiag(res, "control-flow-out-of-text"))
        << diagText(res);
}

TEST(Diagnostics, FrameExceedsOffsetField)
{
    // A 20000-byte frame cannot be spanned by the 15-bit offset
    // field; the paper's footnote 6 prescribes a secondary base.
    prog::Program p = prog::assemble(R"(
main:
        addi t0, zero, 20000
        sub sp, sp, t0
        add sp, sp, t0
        halt
)");
    AnalysisResult res = analyze(p);
    EXPECT_TRUE(hasDiag(res, "frame-exceeds-offset-field"))
        << diagText(res);
    ASSERT_EQ(res.functions.size(), 1u);
    EXPECT_EQ(res.functions[0].frameWords, 5000u);
}

// ---- interprocedural refinement -------------------------------------------

TEST(Analyzer, ArgumentAndReturnPropagation)
{
    // The heap pointer flows a0 -> callee and back through v0; both
    // dereferences should be provably non-local.
    prog::Program p = prog::assemble(R"(
        .data
cell:   .word 42
        .text
main:
        la a0, cell
        jal bump
        lw t0, 0(v0)
        print t0
        halt
bump:
        lw t1, 0(a0)
        addi t1, t1, 1
        sw t1, 0(a0)
        move v0, a0
        ret
)");
    AnalysisResult res = analyze(p);
    EXPECT_EQ(res.errors(), 0u) << diagText(res);
    EXPECT_EQ(res.loads.ambiguous + res.stores.ambiguous, 0u)
        << diagText(res);
    EXPECT_EQ(res.loads.nonLocal, 2u);
    EXPECT_EQ(res.stores.nonLocal, 1u);
}

TEST(Analyzer, SpillReloadKeepsTracking)
{
    // A heap pointer spilled to the frame and reloaded after a call
    // must still classify its dereference as non-local.
    prog::Program p = prog::assemble(R"(
        .data
cell:   .word 7
        .text
main:
        addi sp, sp, -8
        sw ra, 4(sp) !local
        la t0, cell
        sw t0, 0(sp) !local
        jal leaf
        lw t1, 0(sp) !local
        lw t2, 0(t1)
        lw ra, 4(sp) !local
        addi sp, sp, 8
        print t2
        halt
leaf:
        ret
)");
    AnalysisResult res = analyze(p);
    EXPECT_EQ(res.errors(), 0u) << diagText(res);
    EXPECT_EQ(res.loads.ambiguous + res.stores.ambiguous, 0u)
        << diagText(res);
}

// ---- adversarial frames ---------------------------------------------------

TEST(Adversarial, AllocaFrameWithSpRestoreThroughCopy)
{
    // The alloca idiom: a dynamic sp adjustment (sp-inexact warning,
    // not an error), stores through the inexact-but-stack-rooted sp
    // still provably local, and the restore through a saved copy
    // recovering the exact entry-relative offset for the epilogue.
    prog::Program p = prog::assemble(R"(
main:
        addi sp, sp, -16
        sw ra, 12(sp) !local
        move t0, sp
        sub sp, sp, a0
        sw zero, 0(sp) !local
        move sp, t0
        lw ra, 12(sp) !local
        addi sp, sp, 16
        halt
)");
    AnalysisResult res = analyze(p);
    EXPECT_TRUE(hasDiag(res, "sp-inexact")) << diagText(res);
    EXPECT_FALSE(hasDiag(res, "sp-lost")) << diagText(res);
    EXPECT_FALSE(hasDiag(res, "sp-unbalanced-return"))
        << diagText(res);
    EXPECT_EQ(res.errors(), 0u) << diagText(res);
    // Pinned verdicts: every access is provably local — including the
    // store through the dynamically adjusted sp (rooted-pointer
    // assumption) — and none is ambiguous.
    EXPECT_EQ(res.loads.local, 1u) << diagText(res);
    EXPECT_EQ(res.stores.local, 2u) << diagText(res);
    EXPECT_EQ(res.loads.ambiguous + res.stores.ambiguous, 0u)
        << diagText(res);
}

TEST(Adversarial, MutualRecursionConverges)
{
    // even <-> odd call each other; the interprocedural fixpoint must
    // converge with every frame access still provably local.
    prog::Program p = prog::assemble(R"(
main:
        jal even
        halt
even:
        addi sp, sp, -8
        sw ra, 0(sp) !local
        jal odd
        lw ra, 0(sp) !local
        addi sp, sp, 8
        ret
odd:
        addi sp, sp, -8
        sw ra, 0(sp) !local
        jal even
        lw ra, 0(sp) !local
        addi sp, sp, 8
        ret
)");
    AnalysisResult res = analyze(p);
    EXPECT_EQ(res.errors(), 0u) << diagText(res);
    // Pinned verdicts: two spills, two reloads, all local.
    EXPECT_EQ(res.loads.local, 2u) << diagText(res);
    EXPECT_EQ(res.stores.local, 2u) << diagText(res);
    EXPECT_EQ(res.loads.ambiguous + res.stores.ambiguous, 0u)
        << diagText(res);
}

TEST(Adversarial, StackPointerEscapesToCallee)
{
    // A frame address passed as an argument arrives as StackDerived
    // (the per-function StackOff coordinate cannot cross the call),
    // but the dereference is still provably on the stack — Local, not
    // Ambiguous.
    prog::Program p = prog::assemble(R"(
main:
        addi sp, sp, -16
        sw zero, 0(sp) !local
        move a0, sp
        jal consume
        addi sp, sp, 16
        halt
consume:
        lw t0, 0(a0) !local
        ret
)");
    AnalysisResult res = analyze(p);
    EXPECT_EQ(res.errors(), 0u) << diagText(res);
    EXPECT_EQ(res.loads.local, 1u) << diagText(res);
    EXPECT_EQ(res.stores.local, 1u) << diagText(res);
    EXPECT_EQ(res.loads.ambiguous + res.stores.ambiguous, 0u)
        << diagText(res);
}

// ---- the annotation pass --------------------------------------------------

namespace {

/**
 * One provably-Local store (hint clear), one provably-NonLocal store
 * (hint wrongly set), one Ambiguous load (hint as given): every
 * verdict class the policies treat differently.
 */
prog::Program
annotateFixture(bool ambiguousHinted)
{
    std::string src = R"(
main:
        addi sp, sp, -8
        sw zero, 0(sp)
        sw zero, 0(gp) !local
        lw t0, 0(t6))";
    src += ambiguousHinted ? " !local\n" : "\n";
    src += R"(        addi sp, sp, 8
        halt
)";
    return prog::assemble(src);
}

} // namespace

TEST(Annotate, SafeClearsAmbiguous)
{
    prog::Program p = annotateFixture(true);
    AnnotateStats st;
    prog::Program out =
        annotateProgram(p, HintPolicy::Safe, &st);
    EXPECT_EQ(st.memInsts, 3u);
    EXPECT_EQ(st.ambiguous, 1u);
    EXPECT_EQ(st.hinted, 1u);  // the Local store
    EXPECT_EQ(st.cleared, 2u); // NonLocal + Ambiguous
    EXPECT_EQ(st.changed, 3u); // all three bits flipped
    EXPECT_TRUE(out.fetch(1).localHint);   // sw 0(sp): Local
    EXPECT_FALSE(out.fetch(2).localHint);  // sw 0(gp): NonLocal
    EXPECT_FALSE(out.fetch(3).localHint);  // lw 0(t6): Ambiguous
}

TEST(Annotate, SpeculativeHintsAmbiguous)
{
    prog::Program p = annotateFixture(false);
    AnnotateStats st;
    prog::Program out =
        annotateProgram(p, HintPolicy::Speculative, &st);
    EXPECT_EQ(st.hinted, 2u); // Local + Ambiguous
    EXPECT_EQ(st.cleared, 1u);
    EXPECT_TRUE(out.fetch(3).localHint);
}

TEST(Annotate, HybridKeepsAmbiguousHint)
{
    // The ambiguous instruction keeps whatever bit the program
    // carried — in both polarities.
    AnnotateStats st;
    prog::Program kept =
        annotateProgram(annotateFixture(true), HintPolicy::Hybrid,
                        &st);
    EXPECT_TRUE(kept.fetch(3).localHint);
    EXPECT_EQ(st.ambiguous, 1u);
    prog::Program cleared = annotateProgram(annotateFixture(false),
                                            HintPolicy::Hybrid);
    EXPECT_FALSE(cleared.fetch(3).localHint);
}

TEST(Annotate, IsIdempotentAndPreservesVerdicts)
{
    for (HintPolicy policy :
         {HintPolicy::Safe, HintPolicy::Speculative,
          HintPolicy::Hybrid}) {
        prog::Program once =
            annotateProgram(annotateFixture(true), policy);
        AnnotateStats st;
        prog::Program twice = annotateProgram(once, policy, &st);
        EXPECT_EQ(st.changed, 0u) << hintPolicyName(policy);
        ASSERT_EQ(once.textSize(), twice.textSize());
        for (std::uint32_t i = 0; i < once.textSize(); ++i)
            EXPECT_EQ(once.fetchRaw(i), twice.fetchRaw(i))
                << hintPolicyName(policy);
        // Hint bits never feed the verdicts, so re-analysis of the
        // annotated program must agree with the original's.
        AnalysisResult before = analyze(annotateFixture(true));
        AnalysisResult after = analyze(once);
        EXPECT_EQ(before.loads.local, after.loads.local);
        EXPECT_EQ(before.stores.nonLocal, after.stores.nonLocal);
        EXPECT_EQ(before.loads.ambiguous, after.loads.ambiguous);
    }
}

// ---- report rendering -----------------------------------------------------

TEST(Report, JsonContainsSummaryAndDiagnostics)
{
    prog::Program p = prog::assemble(R"(
main:
        sw zero, 0(gp) !local
        halt
)");
    AnalysisResult res = analyze(p);
    std::string json = jsonReport(res);
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"annotation-local-but-nonlocal\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"stores\": {\"local\": 0, \"nonlocal\": 1, "
                        "\"ambiguous\": 0}"),
              std::string::npos)
        << json;
}

// ---- static vs. runtime-Oracle cross-check --------------------------------

namespace {

struct CrossCheck
{
    std::uint64_t checked = 0;     ///< Dynamic mem insts with a
                                   ///< definite static verdict.
    std::uint64_t mismatches = 0;  ///< Static verdict contradicted.
    std::size_t staticAmbiguous = 0;
};

/**
 * Run @p name to completion and compare the Oracle's per-access
 * stack/non-stack decision against the static verdict of the same
 * instruction. Local must always hit the stack, NonLocal never;
 * Ambiguous is exempt but counted against a pinned budget.
 */
CrossCheck
crossCheck(const std::string &name, std::uint64_t scale = 10)
{
    workloads::WorkloadParams params;
    params.scale = scale;
    prog::Program program = workloads::build(name, params);
    AnalysisResult res = analyze(program);
    EXPECT_EQ(res.errors(), 0u) << name << "\n" << diagText(res);
    EXPECT_EQ(res.warnings(), 0u) << name << "\n" << diagText(res);

    CrossCheck out;
    out.staticAmbiguous = res.loads.ambiguous + res.stores.ambiguous;

    vm::Executor exec(program);
    std::uint64_t guard = 50'000'000;
    while (!exec.halted() && guard--) {
        vm::DynInst di = exec.step();
        if (!di.isMem())
            continue;
        auto it = res.verdicts.find(di.pcIdx);
        if (it == res.verdicts.end()) {
            ADD_FAILURE()
                << name << ": executed mem inst @" << di.pcIdx
                << " missing from the static classification";
            break;
        }
        if (it->second == isa::Verdict::Ambiguous)
            continue;
        ++out.checked;
        bool staticLocal = it->second == isa::Verdict::Local;
        if (staticLocal != di.stackAccess) {
            ++out.mismatches;
            ADD_FAILURE() << name << " @" << di.pcIdx << ": static "
                          << verdictName(it->second)
                          << " but oracle says stackAccess="
                          << di.stackAccess;
        }
        if (out.mismatches > 3)
            break; // don't spam; the workload run is long
    }
    EXPECT_TRUE(exec.halted()) << name;
    return out;
}

} // namespace

TEST(CrossCheck, IntegerWorkloadsAgreeWithOracle)
{
    for (const char *name : {"go", "m88ksim", "gcc", "compress",
                             "li", "ijpeg", "perl", "vortex"}) {
        CrossCheck cc = crossCheck(name);
        EXPECT_EQ(cc.mismatches, 0u) << name;
        EXPECT_GT(cc.checked, 0u) << name;
        // Zero ambiguity across the whole suite: m88ksim's
        // hand-rolled 44 KB loadcore frame (secondary base register,
        // paper footnote 6) used to defeat the classifier until
        // stack-derived bases were accepted as Local under the
        // rooted-pointer assumption.
        EXPECT_EQ(cc.staticAmbiguous, 0u) << name;
    }
}

TEST(CrossCheck, FpWorkloadsAgreeWithOracle)
{
    for (const char *name : {"tomcatv", "swim", "su2cor", "mgrid"}) {
        CrossCheck cc = crossCheck(name);
        EXPECT_EQ(cc.mismatches, 0u) << name;
        EXPECT_GT(cc.checked, 0u) << name;
        EXPECT_EQ(cc.staticAmbiguous, 0u) << name;
    }
}

TEST(CrossCheck, WholeRegistryAnalyzesClean)
{
    for (const auto &info : workloads::all()) {
        workloads::WorkloadParams params;
        params.scale = info.defaultScale;
        AnalysisResult res = analyze(info.factory(params));
        EXPECT_EQ(res.errors(), 0u)
            << info.name << "\n" << diagText(res);
        EXPECT_EQ(res.warnings(), 0u)
            << info.name << "\n" << diagText(res);
        EXPECT_GT(res.loads.total() + res.stores.total(), 0u)
            << info.name;
    }
}
