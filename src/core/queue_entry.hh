/**
 * @file
 * The per-entry state of a memory access queue (LSQ or LVAQ).
 */

#ifndef DDSIM_CORE_QUEUE_ENTRY_HH_
#define DDSIM_CORE_QUEUE_ENTRY_HH_

#include <cstdint>

#include "util/types.hh"

namespace ddsim::core {

/**
 * One load or store resident in a memory access queue: only what the
 * timing model reads. How the access was served (for observability)
 * lives beside the entries, in MemQueue::served().
 */
struct QueueEntry
{
    InstSeq seq = 0;            ///< Program-order sequence number.
    Cycle addrKnownAt = 0;      ///< Effective address usable from.
    Cycle dataReadyAt = 0;      ///< Store data usable from.
    Cycle completeAt = 0;
    InstSeq fastFwdSeq = 0;     ///< See fastFwdSlot.
    InstSeq olderStoreSeq = 0;  ///< See olderStoreSlot.

    Addr addr = 0;              ///< Filled in by address generation.
    int robIdx = -1;            ///< Owning ROB entry.

    /** Fast-forward source: (slot, seq) of the matched older store. */
    int fastFwdSlot = -1;

    /**
     * A load's youngest older overlapping store as (slot, seq), -1 if
     * none: searched once the load passes the disambiguation barrier
     * and reused while olderStoreEpoch equals the queue's store epoch,
     * which moves only when an addressed store is cancelled or given a
     * new address. A store found here that has left the queue had
     * committed (older stores leave in order): the cache holds its
     * value.
     */
    int olderStoreSlot = -1;
    std::uint32_t olderStoreEpoch = 0; ///< 0 = not searched.

    // Static addressing info used by fast data forwarding: a
    // store/load pair with the same base register, the same version of
    // that register's value and the same offset is guaranteed to match
    // addresses (Section 2.2.2).
    std::int32_t offset = 0;
    std::uint32_t baseVersion = 0;
    RegId baseReg = 0;

    std::uint8_t size = 0;      ///< Access width in bytes.
    bool valid = false;
    bool isLoad = false;
    bool isStore = false;
    bool addrKnown = false;
    bool dataReady = false;     ///< Store data availability.

    // Progress.
    bool issued = false;        ///< Load sent to cache / forwarded.
    bool completed = false;
    bool committed = false;     ///< Store written to its cache.

    /** Steered into the wrong queue (Predictor classifier only). */
    bool missteered = false;

    /**
     * Killed replica (Replicate steering, paper footnote 3): the
     * access was inserted into both queues and this copy turned out
     * to be in the wrong one. Cancelled entries never issue, never
     * block disambiguation, and release normally.
     */
    bool cancelled = false;

    /** Does @p other (a store) fully cover this entry's bytes? */
    bool
    coveredBy(const QueueEntry &other) const
    {
        return other.addr <= addr &&
               addr + size <= other.addr + other.size;
    }
};

/**
 * How a queue entry's access was ultimately served. Written by the
 * queue, read only by the observability layer — never by timing code.
 */
struct ServedInfo
{
    enum : std::uint8_t
    {
        kNone = 0,
        kCache = 1,       ///< Issued through a cache port.
        kForward = 2,     ///< In-queue store-to-load forward.
        kFastForward = 3, ///< Offset-matched fast forward.
    };
    std::uint8_t kind = kNone;
    bool combinedGrant = false; ///< Rode another access's port grant.
    Cycle at = 0;               ///< Cycle the serving action ran.
};

} // namespace ddsim::core

#endif // DDSIM_CORE_QUEUE_ENTRY_HH_
