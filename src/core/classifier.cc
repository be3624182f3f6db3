#include "core/classifier.hh"

#include "util/log.hh"

namespace ddsim::core {

Classifier::Classifier(stats::Group *parent, config::ClassifierKind kind,
                       int predictorEntries)
    : stats::Group(parent, "classifier"),
      classified(this, "classified", "memory instructions classified"),
      toLvaq(this, "to_lvaq", "classified as local (steered to LVAQ)"),
      verified(this, "verified", "classifications verified"),
      mispredicted(this, "mispredicted", "wrongly steered accesses"),
      staticDecided(this, "static_decided",
                    "accesses decided by the static verdict table"),
      classifierKind(kind)
{
    if (kind == config::ClassifierKind::Predictor ||
        kind == config::ClassifierKind::StaticHybrid)
        predictor = std::make_unique<RegionPredictor>(predictorEntries);
}

void
Classifier::setStaticVerdicts(std::vector<StaticVerdict> table)
{
    verdicts = std::move(table);
}

Stream
Classifier::classify(const vm::DynInst &di)
{
    ++classified;
    bool local = decideLocal(di.pcIdx, di.inst, di.stackAccess, true);
    if (local)
        ++toLvaq;
    return local ? Stream::Lvaq : Stream::Lsq;
}

bool
Classifier::verify(const vm::DynInst &di, Stream chosen)
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

double
Classifier::accuracy() const
{
    if (verified.value() == 0)
        return 1.0;
    return 1.0 - stats::safeRatio(mispredicted.report(),
                                  verified.report());
}

} // namespace ddsim::core
