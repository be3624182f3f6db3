/**
 * @file
 * Timing-only set-associative cache model: LRU replacement, write-back
 * write-allocate, lockup-free via MSHRs. Data values live in the
 * functional VM; this model tracks tags and timing.
 */

#ifndef DDSIM_MEM_CACHE_HH_
#define DDSIM_MEM_CACHE_HH_

#include <string>
#include <vector>

#include "config/machine_config.hh"
#include "mem/mshr.hh"
#include "stats/group.hh"
#include "stats/stat.hh"
#include "util/types.hh"

namespace ddsim::mem {

/** Abstract next-level interface (another cache, or main memory). */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Timing access. @p when is the cycle the request arrives;
     * @return the cycle the data is available to the requester.
     */
    virtual Cycle access(Addr addr, bool isWrite, Cycle when) = 0;

    /**
     * Functional warming (SMARTS fast-forward): update tag/LRU state
     * as @p addr being touched at @p when without charging any
     * latency, statistics or MSHR traffic. Default: no state to warm.
     */
    virtual void warm(Addr addr, bool isWrite, Cycle when)
    {
        (void)addr;
        (void)isWrite;
        (void)when;
    }
};

/**
 * A set-associative, write-back, lockup-free cache. Final, so calls
 * through a Cache (the sampled engine's fast-forward loop) bind
 * statically and inline warm()'s hit path.
 */
class Cache final : public MemLevel, public stats::Group
{
  public:
    /**
     * @param parent Stats parent.
     * @param name Component name ("l1d", "lvc", "l2").
     * @param params Geometry and latency.
     * @param next Next level for misses and writebacks (not owned).
     * @param numMshrs Max outstanding misses.
     */
    Cache(stats::Group *parent, const std::string &name,
          const config::CacheParams &params, MemLevel *next,
          int numMshrs = 32);

    Cycle access(Addr addr, bool isWrite, Cycle when) override;

    /**
     * Install/touch the line for @p addr without stats, MSHR traffic
     * or writebacks, recursing into the next level on a miss — keeps
     * tag state tracking the instruction stream across a sampled
     * simulation's functional fast-forward. Hits are inline; misses
     * go out of line.
     */
    void
    warm(Addr addr, bool isWrite, Cycle when) override
    {
        Addr la = lineAddr(addr);
        if (Line *line = findLine(la)) [[likely]] {
            line->lastUsed = when;
            if (isWrite)
                line->dirty = true;
            return;
        }
        warmMiss(la, isWrite, when);
    }

    /** Non-timing probe: would @p addr hit right now? (tests) */
    bool probe(Addr addr) const;

    /** Invalidate everything (used between runs). */
    void flush();

    const config::CacheParams &params() const { return cacheParams; }

    double missRate() const;

    // Stats (public: formulas in benches read them directly).
    stats::Scalar accesses;
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar mshrMerges;   ///< Misses merged into in-flight fills.
    stats::Scalar evictions;
    stats::Scalar writebacks;   ///< Dirty evictions sent down.
    stats::Scalar readAccesses;
    stats::Scalar writeAccesses;
    stats::Formula missRateStat;    ///< misses / accesses.

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        Cycle lastUsed = 0;
        Cycle filledAt = 0; ///< Cycle the fill completes.
    };

    config::CacheParams cacheParams;
    MemLevel *next;
    std::vector<Line> lines;
    std::uint32_t numSets;
    std::uint32_t lineShift;
    MshrFile mshrs;

    Addr lineAddr(Addr addr) const
    {
        return addr >> lineShift;
    }
    std::uint32_t setIndex(Addr la) const
    {
        return static_cast<std::uint32_t>(la) & (numSets - 1);
    }
    Line *
    findLine(Addr la)
    {
        Line *base = &lines[static_cast<std::size_t>(setIndex(la)) *
                            cacheParams.assoc];
        for (std::uint32_t w = 0; w < cacheParams.assoc; ++w) {
            if (base[w].valid && base[w].tag == la)
                return &base[w];
        }
        return nullptr;
    }
    const Line *findLine(Addr la) const
    {
        return const_cast<Cache *>(this)->findLine(la);
    }
    void warmMiss(Addr la, bool isWrite, Cycle when);
    /** LRU victim slot for @p la's set — no stats, no writeback. */
    Line &lruLine(Addr la);
    Line &victimLine(Addr la, Cycle when);
};

} // namespace ddsim::mem

#endif // DDSIM_MEM_CACHE_HH_
