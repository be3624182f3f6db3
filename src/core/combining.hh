/**
 * @file
 * Access combining (Section 2.2.2): the LVC port scheduler may merge
 * up to C consecutive queue entries that touch the same cache line
 * into a single (wide) port access. The same scheduler, with C = 1,
 * serves as the plain port arbiter for the L1 data cache.
 */

#ifndef DDSIM_CORE_COMBINING_HH_
#define DDSIM_CORE_COMBINING_HH_

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace ddsim::core {

/** What kind of access is requesting a port. */
enum class AccessKind : std::uint8_t
{
    Load,       ///< Load that will access the cache.
    Store,      ///< Committing store writing the cache.
    Forward,    ///< Load satisfied by in-queue forwarding; it still
                ///< occupies a port (as in sim-outorder) but finishes
                ///< in the forwarding latency, so it must not share a
                ///< combining group with real cache accesses.
};

/** Per-cycle cache-port arbiter with optional access combining. */
class PortScheduler
{
  public:
    /**
     * @param ports Number of cache ports.
     * @param degree Combining degree C (1 = no combining).
     * @param lineBytes Cache line size defining combinable groups.
     * @param banks 0 for ideal ports (footnote 8 of the paper: any N
     *        accesses per cycle); otherwise the cache is interleaved
     *        across this many single-ported banks selected by line
     *        address, and two accesses to the same bank conflict even
     *        when ports are free — the realistic multi-porting
     *        technique whose drawbacks motivate the paper (Section 1).
     */
    PortScheduler(int ports, int degree, std::uint32_t lineBytes,
                  int banks = 0);

    /** Start a new cycle; all ports and groups are released. */
    void
    newCycle(Cycle now)
    {
        if (now == curCycle)
            return;
        curCycle = now;
        portsUsed = 0;
        groups.clear();
        if (banks > 0)
            bankBusy.assign(static_cast<std::size_t>(banks), false);
    }

    /** Result of a port request. */
    struct Grant
    {
        bool granted = false;
        bool combined = false;  ///< Joined an existing group.
        bool bankConflict = false; ///< Denied by a busy bank.
        int groupId = -1;
    };

    /**
     * Request a port for an access at @p addr in cycle position
     * @p queuePos (logical index from queue head; used to enforce the
     * "consecutive entries" window of the combining hardware). Only
     * same-kind accesses to the same line may combine.
     */
    Grant request(Addr addr, AccessKind kind, int queuePos);

    /** Record the leader's cache completion time for a group. */
    void setGroupCompletion(int groupId, Cycle completeAt);

    /** Completion time recorded for @p groupId. */
    Cycle groupCompletion(int groupId) const;

    int portsInUse() const { return portsUsed; }
    int numPorts() const { return ports; }
    Cycle cycle() const { return curCycle; }

  private:
    struct Group
    {
        Addr line = 0;
        AccessKind kind = AccessKind::Load;
        int leaderPos = 0;
        int members = 1;
        Cycle completeAt = 0;
    };

    int ports;
    int degree;
    std::uint32_t lineShift;
    int banks;                      ///< 0 = ideal ports.
    Cycle curCycle = ~Cycle{0};
    int portsUsed = 0;
    std::vector<Group> groups;
    std::vector<bool> bankBusy;     ///< Per-cycle bank occupancy.
};

} // namespace ddsim::core

#endif // DDSIM_CORE_COMBINING_HH_
