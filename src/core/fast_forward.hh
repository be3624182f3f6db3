/**
 * @file
 * Fast data forwarding (Section 2.2.2): match a load to an older store
 * in the LVAQ *by offset*, before either effective address has been
 * computed. Within a function frame the stack pointer does not change,
 * so two accesses with the same base register, the same version of
 * that register's value and the same offset are guaranteed to alias —
 * no later verification is required.
 */

#ifndef DDSIM_CORE_FAST_FORWARD_HH_
#define DDSIM_CORE_FAST_FORWARD_HH_

#include <cstdint>
#include <vector>

#include "core/queue_entry.hh"

namespace ddsim::core {

/**
 * Scan older queue entries for a store the load can fast-forward from.
 *
 * @param entries Physical queue storage.
 * @param forEachOlder Called once with a visitor; calls visitor(slot)
 *        for the slots older than the load, youngest first, until the
 *        visitor returns false.
 * @param load The just-dispatched load.
 * @return The slot of the matched store, or -1.
 *
 * The scan stops conservatively at the first older store whose
 * relationship to the load cannot be proven from static information:
 * a store with a different base register or a different base-register
 * version. Stores with the same base+version but a provably disjoint
 * byte range are skipped.
 */
template <class ForEachOlder>
int
findFastForwardStore(const std::vector<QueueEntry> &entries,
                     ForEachOlder &&forEachOlder, const QueueEntry &load)
{
    int match = -1;
    forEachOlder([&](int slot) {
        const QueueEntry &e = entries[static_cast<std::size_t>(slot)];
        if (!e.valid || e.cancelled || !e.isStore)
            return true;

        bool sameBase = e.baseReg == load.baseReg &&
                        e.baseVersion == load.baseVersion;
        if (!sameBase) {
            // Unknown aliasing relationship: the hardware cannot prove
            // anything from the offset fields -- stop the scan.
            return false;
        }
        if (e.offset == load.offset && e.size == load.size) {
            // Exact match: guaranteed same address, forward from here.
            match = slot;
            return false;
        }
        // Byte ranges [offset, offset+size) disjoint? Then these are
        // provably different frame slots: keep scanning older stores.
        // Otherwise they partially overlap within the frame: no
        // forward.
        std::int64_t sLo = e.offset, sHi = sLo + e.size;
        std::int64_t lLo = load.offset, lHi = lLo + load.size;
        return sHi <= lLo || lHi <= sLo;
    });
    return match;
}

} // namespace ddsim::core

#endif // DDSIM_CORE_FAST_FORWARD_HH_
