/**
 * @file
 * Classifier and region-predictor tests: every classification scheme,
 * verification counting, and predictor training behaviour.
 */

#include <gtest/gtest.h>

#include "core/classifier.hh"
#include "core/region_predictor.hh"
#include "stats/group.hh"
#include "util/rng.hh"

using namespace ddsim;
using namespace ddsim::core;
using ddsim::config::ClassifierKind;
namespace reg = ddsim::isa::reg;

namespace {

vm::DynInst
makeMem(bool localHint, bool stackAddr, RegId base,
        std::uint32_t pcIdx = 0)
{
    vm::DynInst di;
    di.pcIdx = pcIdx;
    di.inst.op = isa::OpCode::LW;
    di.inst.rt = reg::t0;
    di.inst.rs = base;
    di.inst.localHint = localHint;
    di.effAddr = stackAddr ? layout::StackBase - 64 : layout::HeapBase;
    di.stackAccess = stackAddr;
    di.accessSize = 4;
    return di;
}

} // namespace

TEST(Classifier, NoneAlwaysLsq)
{
    stats::Group root(nullptr, "");
    Classifier c(&root, ClassifierKind::None);
    EXPECT_EQ(c.classify(makeMem(true, true, reg::sp)), Stream::Lsq);
    EXPECT_EQ(c.classify(makeMem(false, false, reg::t0)), Stream::Lsq);
}

TEST(Classifier, AnnotationFollowsCompilerBit)
{
    stats::Group root(nullptr, "");
    Classifier c(&root, ClassifierKind::Annotation);
    EXPECT_EQ(c.classify(makeMem(true, true, reg::t0)), Stream::Lvaq);
    EXPECT_EQ(c.classify(makeMem(false, true, reg::sp)), Stream::Lsq);
    EXPECT_EQ(c.toLvaq.value(), 1u);
    EXPECT_EQ(c.classified.value(), 2u);
}

TEST(Classifier, SpBaseHeuristic)
{
    stats::Group root(nullptr, "");
    Classifier c(&root, ClassifierKind::SpBase);
    EXPECT_EQ(c.classify(makeMem(false, true, reg::sp)), Stream::Lvaq);
    EXPECT_EQ(c.classify(makeMem(false, true, reg::fp)), Stream::Lvaq);
    // A stack access via a computed pointer escapes the heuristic --
    // the <5% case the paper mentions.
    EXPECT_EQ(c.classify(makeMem(false, true, reg::t1)), Stream::Lsq);
}

TEST(Classifier, OracleUsesActualAddress)
{
    stats::Group root(nullptr, "");
    Classifier c(&root, ClassifierKind::Oracle);
    EXPECT_EQ(c.classify(makeMem(false, true, reg::t1)), Stream::Lvaq);
    EXPECT_EQ(c.classify(makeMem(true, false, reg::sp)), Stream::Lsq);
}

TEST(Classifier, VerifyCountsMispredictions)
{
    stats::Group root(nullptr, "");
    Classifier c(&root, ClassifierKind::Annotation);
    auto di = makeMem(true, false, reg::t0); // hint says local, isn't
    Stream s = c.classify(di);
    EXPECT_EQ(s, Stream::Lvaq);
    EXPECT_FALSE(c.verify(di, s));
    EXPECT_EQ(c.mispredicted.value(), 1u);
    auto ok = makeMem(true, true, reg::sp);
    EXPECT_TRUE(c.verify(ok, c.classify(ok)));
    EXPECT_DOUBLE_EQ(c.accuracy(), 0.5);
}

TEST(Classifier, OracleIsAlwaysAccurate)
{
    stats::Group root(nullptr, "");
    Classifier c(&root, ClassifierKind::Oracle);
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        auto di = makeMem(rng.chance(0.5), rng.chance(0.5),
                          rng.chance(0.5) ? reg::sp : reg::t0,
                          static_cast<std::uint32_t>(rng.below(64)));
        EXPECT_TRUE(c.verify(di, c.classify(di)));
    }
    EXPECT_DOUBLE_EQ(c.accuracy(), 1.0);
}

TEST(Classifier, PredictorLearnsFromResolution)
{
    stats::Group root(nullptr, "");
    Classifier c(&root, ClassifierKind::Predictor);
    // pc 5 hints local but always resolves non-local.
    auto di = makeMem(true, false, reg::t0, 5);
    Stream first = c.classify(di);
    EXPECT_EQ(first, Stream::Lvaq); // untrained: follows hint
    c.verify(di, first);            // trains: non-local
    Stream second = c.classify(di);
    EXPECT_EQ(second, Stream::Lsq); // learned
    EXPECT_TRUE(c.verify(di, second));
}

TEST(Classifier, StaticHybridFollowsVerdictTable)
{
    stats::Group root(nullptr, "");
    Classifier c(&root, ClassifierKind::StaticHybrid);
    c.setStaticVerdicts({isa::Verdict::NonLocal,
                         isa::Verdict::Local,
                         isa::Verdict::Ambiguous});
    // Decided pcs ignore both the hint bit and the predictor.
    EXPECT_EQ(c.classify(makeMem(true, true, reg::sp, 0)),
              Stream::Lsq);
    EXPECT_EQ(c.classify(makeMem(false, false, reg::t0, 1)),
              Stream::Lvaq);
    EXPECT_EQ(c.staticDecided.value(), 2u);
    // Ambiguous pc: untrained predictor follows the hint.
    EXPECT_EQ(c.classify(makeMem(true, true, reg::t0, 2)),
              Stream::Lvaq);
    EXPECT_EQ(c.classify(makeMem(false, true, reg::t0, 2)),
              Stream::Lsq);
    EXPECT_EQ(c.staticDecided.value(), 2u);
    // Beyond the table: Ambiguous.
    EXPECT_EQ(c.classify(makeMem(true, true, reg::t0, 99)),
              Stream::Lvaq);
    EXPECT_EQ(c.staticDecided.value(), 2u);
}

TEST(Classifier, StaticHybridTrainsPredictorOnlyOnAmbiguous)
{
    stats::Group root(nullptr, "");
    Classifier c(&root, ClassifierKind::StaticHybrid, 64);
    c.setStaticVerdicts({isa::Verdict::Local});
    // pc 0 is statically Local but resolves non-local (a wrong static
    // verdict): counted as missteered, but it must NOT train the
    // predictor entry that ambiguous pc 64 aliases onto.
    auto wrong = makeMem(true, false, reg::t0, 0);
    Stream s = c.classify(wrong);
    EXPECT_EQ(s, Stream::Lvaq);
    EXPECT_FALSE(c.verify(wrong, s));
    EXPECT_EQ(c.mispredicted.value(), 1u);
    // pc 64 aliases pc 0 in a 64-entry predictor; still untrained, so
    // it follows its hint.
    EXPECT_EQ(c.classify(makeMem(true, true, reg::t0, 64)),
              Stream::Lvaq);
    // Ambiguous pcs do train it.
    auto amb = makeMem(true, false, reg::t0, 64);
    c.verify(amb, Stream::Lvaq);
    EXPECT_EQ(c.classify(makeMem(true, false, reg::t0, 64)),
              Stream::Lsq);
}

TEST(Classifier, StaticHybridWithoutTableActsAsPredictor)
{
    stats::Group root(nullptr, "");
    Classifier c(&root, ClassifierKind::StaticHybrid);
    auto di = makeMem(true, false, reg::t0, 5);
    Stream first = c.classify(di);
    EXPECT_EQ(first, Stream::Lvaq); // untrained: follows hint
    c.verify(di, first);
    EXPECT_EQ(c.classify(di), Stream::Lsq); // learned
    EXPECT_EQ(c.staticDecided.value(), 0u);
}

TEST(RegionPredictor, UntrainedUsesHint)
{
    RegionPredictor p(64);
    EXPECT_TRUE(p.predictLocal(7, true));
    EXPECT_FALSE(p.predictLocal(7, false));
}

TEST(RegionPredictor, OneBitLastRegion)
{
    RegionPredictor p(64);
    p.update(9, true);
    EXPECT_TRUE(p.predictLocal(9, false));
    p.update(9, false);
    EXPECT_FALSE(p.predictLocal(9, true));
}

TEST(RegionPredictor, SizeRoundsToPowerOfTwo)
{
    RegionPredictor p(100);
    EXPECT_EQ(p.size(), 128);
}

TEST(RegionPredictor, AliasingSharesEntries)
{
    RegionPredictor p(16);
    p.update(3, true);
    // pc 3+16 aliases to the same entry in a 16-entry table.
    EXPECT_TRUE(p.predictLocal(19, false));
}

TEST(RegionPredictor, HighAccuracyOnStablePattern)
{
    // The paper's claim: a 1-bit predictor gets ~99.9% of dynamic
    // references right because per-instruction regions are stable.
    stats::Group root(nullptr, "");
    Classifier c(&root, ClassifierKind::Predictor);
    Rng rng(17);
    // 32 static instructions, each with a fixed region; 1 flaky one.
    bool region[32];
    for (int i = 0; i < 32; ++i)
        region[i] = rng.chance(0.5);
    for (int n = 0; n < 5000; ++n) {
        int pc = static_cast<int>(rng.below(32));
        bool local = pc == 0 ? rng.chance(0.5) : region[pc];
        auto di = makeMem(local, local, reg::sp,
                          static_cast<std::uint32_t>(pc));
        c.verify(di, c.classify(di));
    }
    EXPECT_GT(c.accuracy(), 0.97);
}
