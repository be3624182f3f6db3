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
Classifier::setStaticVerdicts(std::vector<isa::Verdict> table)
{
    verdicts = std::move(table);
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
