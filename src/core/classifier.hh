/**
 * @file
 * Memory-stream classification (Section 2 of the paper): at dispatch,
 * every memory instruction is steered either to the conventional LSQ
 * (backed by the L1 data cache) or to the LVAQ (backed by the LVC).
 *
 * Four classification schemes are modelled:
 *  - Annotation: trust the compiler's per-instruction local bit
 *    (Section 2.2.3's "a bit associated with each memory access
 *    instruction").
 *  - SpBase: the hardware heuristic — base register is sp or fp
 *    (the paper notes <5% of stack references escape this rule).
 *  - Oracle: perfect classification by the actual effective address,
 *    the evaluation default ("this paper assumes that a processor can
 *    accurately separate the local accesses").
 *  - Predictor: compiler annotation for unambiguous instructions plus
 *    a 1-bit last-region predictor for the rest, with misprediction
 *    recovery (Section 2.1).
 */

#ifndef DDSIM_CORE_CLASSIFIER_HH_
#define DDSIM_CORE_CLASSIFIER_HH_

#include <memory>
#include <vector>

#include "config/machine_config.hh"
#include "core/region_predictor.hh"
#include "isa/inst.hh"
#include "stats/group.hh"
#include "stats/stat.hh"
#include "vm/trace.hh"

namespace ddsim::core {

/** Which memory access queue an instruction is steered to. */
enum class Stream : std::uint8_t
{
    Lsq,    ///< Non-local: conventional load/store queue + L1 D-cache.
    Lvaq,   ///< Local: local variable access queue + LVC.
};

/** Dispatch-time memory stream classifier. */
class Classifier : public stats::Group
{
  public:
    Classifier(stats::Group *parent, config::ClassifierKind kind,
               int predictorEntries = 2048);

    /**
     * Classify a memory instruction at dispatch. Only dispatch-time
     * information may be used (the oracle mode "peeks" at the
     * effective address the front end already computed, standing in
     * for a perfectly annotated binary).
     */
    Stream
    classify(const vm::DynInst &di)
    {
        ++classified;
        bool local = decideLocal(di.pcIdx, di.inst, di.stackAccess, true);
        if (local)
            ++toLvaq;
        return local ? Stream::Lvaq : Stream::Lsq;
    }

    /**
     * Resolution-time verification: once the effective address is
     * known, was the dispatch decision correct? Updates the predictor
     * and the accuracy statistics.
     *
     * @return true if the access was steered to the right queue.
     */
    bool
    verify(const vm::DynInst &di, Stream chosen)
    {
        ++verified;
        bool actuallyLocal = di.stackAccess;
        bool chosenLocal = chosen == Stream::Lvaq;
        if (trains(di.pcIdx))
            predictor->update(di.pcIdx, actuallyLocal);
        if (actuallyLocal != chosenLocal) {
            ++mispredicted;
            return false;
        }
        return true;
    }

    /**
     * Functional warming: make the steering decision and train the
     * region predictor exactly as a classify()+verify() pair would,
     * but without touching any statistics. Keeps predictor state
     * tracking the instruction stream across a sampled simulation's
     * fast-forward phases. Takes what vm::SkipSink::access reports of
     * the access: @p inst at text index @p pcIdx, to the stack region
     * iff @p stack. @return the stream the access would have been
     * steered to.
     */
    Stream
    warmClassify(std::uint32_t pcIdx, const isa::Inst &inst, bool stack)
    {
        bool local = decideLocal(pcIdx, inst, stack, false);
        if (trains(pcIdx))
            predictor->update(pcIdx, stack);
        return local ? Stream::Lvaq : Stream::Lsq;
    }

    config::ClassifierKind kind() const { return classifierKind; }

    /**
     * Attach the per-pc static verdict table (indexed by text word
     * index) for StaticHybrid operation. Instructions beyond the
     * table, and programs with no table at all, classify as
     * Ambiguous — the predictor carries them.
     */
    void setStaticVerdicts(std::vector<isa::Verdict> table);

    double accuracy() const;

    stats::Scalar classified;
    stats::Scalar toLvaq;
    stats::Scalar verified;
    stats::Scalar mispredicted;
    /** Accesses decided by the static table (StaticHybrid only). */
    stats::Scalar staticDecided;

  private:
    /**
     * The steering decision shared by classify() and warmClassify();
     * @p count enables the static-decided statistic. Inline, so that
     * fast-forward decides the kinds that read no predictor state
     * (None, Annotation, SpBase, Oracle, Replicate) without a call.
     */
    bool
    decideLocal(std::uint32_t pcIdx, const isa::Inst &inst, bool stack,
                bool count)
    {
        bool local = false;
        switch (classifierKind) {
          case config::ClassifierKind::None:
            local = false;
            break;
          case config::ClassifierKind::Annotation:
            local = inst.localHint;
            break;
          case config::ClassifierKind::SpBase:
            local = isa::isStackBase(inst.rs);
            break;
          case config::ClassifierKind::Oracle:
            local = stack;
            break;
          case config::ClassifierKind::Predictor:
            local = predictor->predictLocal(pcIdx, inst.localHint);
            break;
          case config::ClassifierKind::Replicate:
            // Replicated steering is handled in the pipeline (both queues
            // get a copy); if asked, answer with the true region.
            local = stack;
            break;
          case config::ClassifierKind::StaticHybrid:
            // Decided verdicts steer outright; only the Ambiguous
            // remainder pays for (and trains) the region predictor.
            switch (verdictAt(pcIdx)) {
              case isa::Verdict::Local:
                local = true;
                if (count)
                    ++staticDecided;
                break;
              case isa::Verdict::NonLocal:
                local = false;
                if (count)
                    ++staticDecided;
                break;
              case isa::Verdict::Ambiguous:
                local = predictor->predictLocal(pcIdx, inst.localHint);
                break;
            }
            break;
        }
        return local;
    }

    /** Whether verify() and warmClassify() train the predictor on
     *  the access at @p pcIdx. */
    bool
    trains(std::uint32_t pcIdx) const
    {
        // StaticHybrid trains the predictor only on Ambiguous
        // instructions: decided pcs never consult it, and letting
        // them write entries would pollute aliased Ambiguous slots.
        return predictor &&
               (classifierKind != config::ClassifierKind::StaticHybrid ||
                verdictAt(pcIdx) == isa::Verdict::Ambiguous);
    }

    isa::Verdict verdictAt(std::uint64_t pcIdx) const
    {
        return pcIdx < verdicts.size()
                   ? verdicts[static_cast<std::size_t>(pcIdx)]
                   : isa::Verdict::Ambiguous;
    }

    config::ClassifierKind classifierKind;
    std::unique_ptr<RegionPredictor> predictor;
    std::vector<isa::Verdict> verdicts;
};

} // namespace ddsim::core

#endif // DDSIM_CORE_CLASSIFIER_HH_
