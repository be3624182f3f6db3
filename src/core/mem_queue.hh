/**
 * @file
 * MemQueue: one memory access queue plus its port-scheduled cache.
 * Instantiated twice per decoupled machine — once as the conventional
 * LSQ in front of the L1 data cache, once as the LVAQ in front of the
 * LVC — exactly the symmetric structure of Figure 1(b).
 *
 * Semantics follow sim-outorder (Section 3.1):
 *  - a load may access its cache once its own address and the
 *    addresses of all earlier stores *in this queue* are known;
 *  - a load whose bytes are fully covered by an earlier store with
 *    ready data is satisfied by in-queue forwarding in one cycle;
 *  - stores write their cache at commit, competing for the same ports.
 *
 * On top of that, the LVAQ instance adds the paper's two
 * optimizations: fast data forwarding (offset matching before address
 * generation) and access combining in the port scheduler.
 *
 * The pipeline ticks each queue once every cycle, idle cycles
 * included, so a disambiguation stall or an occupancy sample is
 * charged in the tick where it happens.
 *
 * The implementation is indexed rather than scanned. Per-slot bitmaps
 * over the queue's own ring, walked in age order from the head, hold
 * the loads that can act (an address has arrived, or a fast-forward
 * match is pending), the resident stores (the fast-forward offset
 * match walks them youngest first) and the stores the conservative
 * disambiguation barrier still tracks (the oldest one whose address
 * is unknown is the barrier). A tick with no load that can act
 * returns after the port reset and the occupancy sample. A load past
 * the barrier finds its youngest older overlapping store once, by
 * walking the store bitmap back from its own slot against a dense
 * per-slot array of store byte ranges, and keeps the answer until a
 * store is cancelled or re-addressed. The timing model is
 * bit-identical to the original full scan.
 */

#ifndef DDSIM_CORE_MEM_QUEUE_HH_
#define DDSIM_CORE_MEM_QUEUE_HH_

#include <string>
#include <vector>

#include "core/combining.hh"
#include "core/queue_entry.hh"
#include "mem/cache.hh"
#include "stats/group.hh"
#include "stats/histogram.hh"
#include "stats/stat.hh"

namespace ddsim::core {

/** Scheduling policy knobs for one queue. */
struct QueuePolicy
{
    int ports = 1;
    int combining = 1;              ///< Max accesses per port grant.
    int banks = 0;                  ///< 0 = ideal; else interleaved.
    bool fastForward = false;
    Cycle forwardLatency = 1;
    Cycle mispredictPenalty = 8;    ///< Extra latency when missteered.
};

/** A completed load to hand back to the ROB. */
struct LoadCompletion
{
    int slot = -1;
    int robIdx = -1;
    Cycle readyAt = 0;
};

/** One memory access queue (LSQ or LVAQ). */
class MemQueue : public stats::Group
{
  public:
    /**
     * @param cache The cache this queue's ports reach.
     * @param altCache Cache used by missteered accesses (the "other"
     *        stream's cache); may be nullptr when classification is
     *        exact.
     */
    MemQueue(stats::Group *parent, const std::string &name, int size,
             mem::Cache *cache, mem::Cache *altCache,
             const QueuePolicy &policy);

    bool full() const { return count == capacity; }
    int occupancy() const { return count; }
    int size() const { return capacity; }

    /**
     * Allocate a queue slot for a just-dispatched memory instruction.
     * The caller must check full() first. Performs the fast-forward
     * match for loads when the policy enables it.
     *
     * @return The slot index.
     */
    int allocate(InstSeq seq, int robIdx, bool isLoad,
                 std::uint8_t accessSize, RegId baseReg,
                 std::int32_t offset, std::uint32_t baseVersion);

    /** Address generation finished for @p slot. */
    void setAddress(int slot, Addr addr, Cycle when, bool missteered);

    /** The store's data operand became available. */
    void setStoreData(int slot, Cycle readyAt);

    /**
     * Kill a replica (Replicate steering, paper footnote 3): this
     * copy was inserted speculatively and the access belongs to the
     * other queue. The slot stays allocated for ordering but is inert
     * until released.
     */
    void cancel(int slot);

    /**
     * Per-cycle load processing: issue eligible loads to the cache (or
     * forward them) and report completions. Must be called once per
     * cycle after stores have committed (stores get port priority).
     */
    void tick(Cycle now, std::vector<LoadCompletion> &completions);

    /**
     * Try to write a committing store to the cache. @return false if
     * no port could be granted this cycle (the caller stalls commit).
     */
    bool commitStore(int slot, Cycle now);

    /** Free @p slot. Entries must be released oldest-first. */
    void release(int slot);

    const QueueEntry &entry(int slot) const
    {
        return entries[static_cast<std::size_t>(slot)];
    }

    /** How @p slot's access was served (observability only). */
    const ServedInfo &served(int slot) const
    {
        return servedInfo[static_cast<std::size_t>(slot)];
    }

    /**
     * Stores the disambiguation barrier still tracks: resident, not
     * cancelled and not yet found resolved by a tick. At most
     * occupancy(), however many ticks return early (exposed for
     * tests).
     */
    int barrierStores() const;

    /** Fraction of loads satisfied in-queue (paper: 50-90% for LVAQ). */
    double queueSatisfiedFrac() const;

    // Stats.
    stats::Scalar allocated;
    stats::Scalar loadsTotal;
    stats::Scalar storesTotal;
    stats::Scalar loadsForwarded;       ///< Normal in-queue forwards.
    stats::Scalar loadsFastForwarded;   ///< Offset-matched forwards.
    stats::Scalar loadsFromCache;
    stats::Scalar combinedAccesses;     ///< Accesses riding a group.
    stats::Scalar portDenials;          ///< Port-full rejections.
    stats::Scalar bankConflicts;        ///< Banked-mode denials.
    stats::Scalar disambiguationStalls; ///< Load-blocked cycles.
    stats::Scalar missteeredAccesses;
    stats::Scalar cancelledReplicas;    ///< Killed copies (Replicate).
    stats::Histogram occupancyHist;

  private:
    int capacity;
    mem::Cache *cache;
    mem::Cache *altCache;
    QueuePolicy policy;
    std::vector<QueueEntry> entries;
    std::vector<ServedInfo> servedInfo; ///< Parallel to entries.
    int head = 0;
    int tail = 0;
    int count = 0;
    PortScheduler scheduler;
    Cycle lastSampled = 0;

    // ---- Indexes (derived state; the entries array stays the truth).
    /**
     * Per-slot "visit me in the tick" bits, walked in age order from
     * the queue head: a resident load's bit is set once its address
     * arrives or at allocation with a fast-forward match, and cleared
     * when it issues, completes, is cancelled or released, or loses
     * its match with no address. A load without its bit would do
     * nothing in the tick.
     */
    std::vector<std::uint64_t> actBits;
    /**
     * Per-slot bits of the resident, non-cancelled stores, walked
     * youngest first by the store search and by the fast-forward
     * offset match at allocate.
     */
    std::vector<std::uint64_t> storeBits;
    /**
     * The stores the disambiguation barrier still tracks: storeBits
     * minus the stores a tick has found resolved since their last
     * setAddress. The oldest one whose address is unknown as of this
     * cycle is the barrier.
     */
    std::vector<std::uint64_t> barrierBits;
    /** A store's bytes [lo, hi) for the store search. */
    struct StoreSpan
    {
        Addr lo = 0;
        Addr hi = 0;
    };
    /**
     * Parallel to entries: the bytes of each store whose address is
     * known, or the empty span {0, 0}, which overlaps nothing, while
     * it has no address or if its size is zero. The store search reads
     * it at each store in storeBits.
     */
    std::vector<StoreSpan> storeSpans;
    /**
     * Moves whenever an addressed store is cancelled or re-addressed:
     * the only events that change an already-searched load's youngest
     * older store (QueueEntry::olderStoreSlot). Never 0.
     */
    std::uint32_t storeEpoch = 1;

    int positionOf(int slot) const;

    /** Invalidate every load's youngest-older-store answer. */
    void
    bumpStoreEpoch()
    {
        if (++storeEpoch == 0)
            storeEpoch = 1;
    }
    /**
     * Youngest store older than the load in @p slot overlapping its
     * bytes, or -1. Pre-condition (guaranteed by the disambiguation
     * barrier): every older store's address is known.
     */
    int youngestOlderStore(int slot) const;

    /**
     * One load's per-cycle processing (the body of the original full
     * scan). @return true when the load issued or completed.
     */
    bool processLoad(QueueEntry &e, int slot, Cycle now,
                     InstSeq barrierSeq,
                     std::vector<LoadCompletion> &completions);

    /** Issue one load to the cache via the port scheduler. */
    bool tryCacheAccess(QueueEntry &e, int slot, int pos, Cycle now);
};

} // namespace ddsim::core

#endif // DDSIM_CORE_MEM_QUEUE_HH_
