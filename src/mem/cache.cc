#include "mem/cache.hh"

#include <bit>

#include "util/log.hh"

namespace ddsim::mem {

Cache::Cache(stats::Group *parent, const std::string &name,
             const config::CacheParams &params, MemLevel *next,
             int numMshrs)
    : stats::Group(parent, name),
      accesses(this, "accesses", "total accesses"),
      hits(this, "hits", "accesses that hit"),
      misses(this, "misses", "accesses that missed"),
      mshrMerges(this, "mshr_merges",
                 "misses merged into an in-flight fill"),
      evictions(this, "evictions", "lines evicted"),
      writebacks(this, "writebacks", "dirty lines written back"),
      readAccesses(this, "reads", "read accesses"),
      writeAccesses(this, "writes", "write accesses"),
      missRateStat(this, "miss_rate", "misses / accesses",
                   [this] { return missRate(); }),
      cacheParams(params),
      next(next),
      mshrs(numMshrs)
{
    if (!next)
        panic("cache '%s' has no next level", name.c_str());
    numSets = params.numSets();
    lineShift =
        static_cast<std::uint32_t>(std::countr_zero(params.lineBytes));
    lines.assign(static_cast<std::size_t>(numSets) * params.assoc,
                 Line{});
}

Cache::Line &
Cache::lruLine(Addr la)
{
    std::uint32_t set = setIndex(la);
    Line *base = &lines[static_cast<std::size_t>(set) *
                        cacheParams.assoc];
    Line *victim = &base[0];
    for (std::uint32_t w = 0; w < cacheParams.assoc; ++w) {
        if (!base[w].valid)
            return base[w];
        if (base[w].lastUsed < victim->lastUsed)
            victim = &base[w];
    }
    return *victim;
}

Cache::Line &
Cache::victimLine(Addr la, Cycle when)
{
    Line &picked = lruLine(la);
    if (!picked.valid)
        return picked;
    Line *victim = &picked;
    ++evictions;
    if (victim->dirty) {
        ++writebacks;
        // Fire-and-forget: the writeback consumes next-level bandwidth
        // (counted there) but does not delay the demand fill.
        Addr victimAddr = victim->tag << lineShift;
        next->access(victimAddr, true, when);
    }
    victim->valid = false;
    return *victim;
}

Cycle
Cache::access(Addr addr, bool isWrite, Cycle when)
{
    ++accesses;
    if (isWrite)
        ++writeAccesses;
    else
        ++readAccesses;

    Addr la = lineAddr(addr);
    Cycle lookupDone = when + cacheParams.hitLatency;

    if (Line *line = findLine(la)) {
        // A hit -- but if the line's fill is still in flight, data is
        // not available until the fill completes.
        ++hits;
        line->lastUsed = when;
        if (isWrite)
            line->dirty = true;
        return std::max(lookupDone, line->filledAt);
    }

    ++misses;

    // Merge into an outstanding fill for the same line if any.
    if (Cycle fill = mshrs.outstandingFill(la, when)) {
        ++mshrMerges;
        // The line was installed by the original miss; find it and
        // mark usage/dirtiness.
        if (Line *line = findLine(la)) {
            line->lastUsed = when;
            if (isWrite)
                line->dirty = true;
        }
        return std::max(lookupDone, fill);
    }

    // Full miss: fetch the line from the next level.
    Cycle fill = next->access(la << lineShift, false, lookupDone);
    fill = mshrs.allocate(la, when, fill);

    Line &line = victimLine(la, when);
    line.valid = true;
    line.tag = la;
    line.dirty = isWrite;
    line.lastUsed = when;
    line.filledAt = fill;
    return fill;
}

void
Cache::warmMiss(Addr la, bool isWrite, Cycle when)
{
    next->warm(la << lineShift, false, when);
    // Install over the LRU victim. A dirty victim's writeback is
    // dropped silently: warming has no timing to charge it to, and
    // tag state — the thing the measured windows depend on — does not
    // need it.
    Line &line = lruLine(la);
    line.valid = true;
    line.tag = la;
    line.dirty = isWrite;
    line.lastUsed = when;
    line.filledAt = when;
}

bool
Cache::probe(Addr addr) const
{
    return findLine(lineAddr(addr)) != nullptr;
}

void
Cache::flush()
{
    for (Line &l : lines)
        l = Line{};
}

double
Cache::missRate() const
{
    return stats::safeRatio(misses.report(), accesses.report());
}

} // namespace ddsim::mem
