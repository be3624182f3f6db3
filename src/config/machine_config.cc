#include "config/machine_config.hh"

#include "util/log.hh"
#include "util/str.hh"

namespace ddsim::config {

const char *
classifierName(ClassifierKind kind)
{
    switch (kind) {
      case ClassifierKind::None: return "none";
      case ClassifierKind::Annotation: return "annotation";
      case ClassifierKind::SpBase: return "spbase";
      case ClassifierKind::Oracle: return "oracle";
      case ClassifierKind::Predictor: return "predictor";
      case ClassifierKind::Replicate: return "replicate";
      case ClassifierKind::StaticHybrid: return "statichybrid";
    }
    return "?";
}

ClassifierKind
classifierFromName(const std::string &name)
{
    std::string best;
    std::size_t bestDist = 4;
    // ClassifierKind is dense: None first, StaticHybrid last.
    for (int i = 0; i <= static_cast<int>(ClassifierKind::StaticHybrid);
         ++i) {
        auto kind = static_cast<ClassifierKind>(i);
        std::string canon = classifierName(kind);
        if (name == canon)
            return kind;
        std::size_t d = editDistance(name, canon);
        if (d < bestDist) {
            bestDist = d;
            best = canon;
        }
    }
    std::string msg = format("unknown classifier '%s'", name.c_str());
    if (!best.empty())
        msg += format(" (did you mean '%s'?)", best.c_str());
    raise(ConfigError("classifier", msg));
}

std::string
MachineConfig::notation() const
{
    int m = lvcEnabled ? lvc.ports : 0;
    return format("(%d+%d)", l1.ports, m);
}

std::string
MachineConfig::describe() const
{
    std::string s = notation();
    s += format(": %d-wide, ROB %d, LSQ %d", issueWidth, robSize,
                lsqSize);
    s += format(", L1 %uKB/%u-way/%llu-cyc/%d-port",
                l1.sizeBytes / 1024, l1.assoc,
                (unsigned long long)l1.hitLatency, l1.ports);
    if (lvcEnabled) {
        s += format(", LVC %uKB/%u-way/%llu-cyc/%d-port, LVAQ %d",
                    lvc.sizeBytes / 1024, lvc.assoc,
                    (unsigned long long)lvc.hitLatency, lvc.ports,
                    lvaqSize);
        s += format(", classify=%s", classifierName(classifier));
        if (fastForward)
            s += ", fastfwd";
        if (combining > 1)
            s += format(", combine=%d", combining);
    }
    return s;
}

namespace {

// Every rejection names the offending field: the message carries a
// "<field>: ..." prefix and the same dotted name rides on
// ConfigError::field() for machine consumption.
[[noreturn]] void
badField(const std::string &field, const std::string &why)
{
    raise(ConfigError(field, field + ": " + why));
}

void
validateCache(const std::string &name, const CacheParams &c)
{
    if (c.sizeBytes == 0)
        badField(name + ".sizeBytes", "cache size must be nonzero");
    if (c.lineBytes == 0)
        badField(name + ".lineBytes", "line size must be nonzero");
    if (c.assoc == 0)
        badField(name + ".assoc", "associativity must be nonzero");
    if ((c.lineBytes & (c.lineBytes - 1)) != 0)
        badField(name + ".lineBytes",
                 format("line size %u is not a power of two",
                        c.lineBytes));
    if (c.sizeBytes % (c.assoc * c.lineBytes) != 0)
        badField(name + ".sizeBytes",
                 format("size %u is not a multiple of assoc*line",
                        c.sizeBytes));
    std::uint32_t sets = c.numSets();
    if ((sets & (sets - 1)) != 0)
        badField(name + ".sizeBytes",
                 format("number of sets %u is not a power of two",
                        sets));
    if (c.ports < 1)
        badField(name + ".ports", "at least one port required");
    if (c.hitLatency < 1)
        badField(name + ".hitLatency",
                 "hit latency must be at least 1");
    if (c.banks < 0 || (c.banks > 0 && (c.banks & (c.banks - 1)) != 0))
        badField(name + ".banks",
                 "banks must be 0 (ideal) or a power of two");
    if (c.mshrs < 1)
        badField(name + ".mshrs", "at least one MSHR is required");
}

} // namespace

void
MachineConfig::validate() const
{
    if (fetchWidth < 1)
        badField("fetchWidth", "fetch width must be positive");
    if (issueWidth < 1)
        badField("issueWidth", "issue width must be positive");
    if (commitWidth < 1)
        badField("commitWidth", "commit width must be positive");
    if (robSize < 1)
        badField("robSize", "ROB must have at least one entry");
    if (lsqSize < 1)
        badField("lsqSize", "LSQ must have at least one entry");
    if (numIntAlu < 1)
        badField("numIntAlu", "at least one integer ALU is required");
    if (numFpAlu < 1)
        badField("numFpAlu", "at least one FP ALU is required");
    if (numIntMultDiv < 1)
        badField("numIntMultDiv",
                 "at least one integer mult/div unit is required");
    if (numFpMultDiv < 1)
        badField("numFpMultDiv",
                 "at least one FP mult/div unit is required");
    validateCache("l1", l1);
    validateCache("l2", l2);
    if (lvcEnabled) {
        validateCache("lvc", lvc);
        if (lvaqSize < 1)
            badField("lvaqSize", "LVAQ must have at least one entry");
        if (classifier == ClassifierKind::None)
            badField("classifier", "decoupling requires a classifier");
    }
    if (forwardLatency < 1)
        badField("forwardLatency",
                 "forward latency must be at least 1");
    if (memLatency < 1)
        badField("memLatency", "memory latency must be at least 1");
    if (combining < 1)
        badField("combining", "combining degree must be >= 1");
}

} // namespace ddsim::config
