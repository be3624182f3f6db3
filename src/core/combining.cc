#include "core/combining.hh"

#include <bit>
#include <cstdlib>

#include "util/log.hh"

namespace ddsim::core {

PortScheduler::PortScheduler(int ports, int degree,
                             std::uint32_t lineBytes, int banks)
    : ports(ports), degree(degree), banks(banks)
{
    if (ports < 1)
        fatal("port scheduler needs at least one port");
    if (degree < 1)
        fatal("combining degree must be >= 1");
    if (lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0)
        fatal("combining line size must be a power of two");
    if (banks < 0 ||
        (banks > 0 && (banks & (banks - 1)) != 0))
        fatal("bank count must be 0 (ideal) or a power of two");
    lineShift = static_cast<std::uint32_t>(std::countr_zero(lineBytes));
    if (banks > 0)
        bankBusy.assign(static_cast<std::size_t>(banks), false);
}

PortScheduler::Grant
PortScheduler::request(Addr addr, AccessKind kind, int queuePos)
{
    Addr line = addr >> lineShift;

    // Try to join an existing same-line same-kind group first: this
    // consumes no additional port, modelling the wide LVC port of the
    // paper.
    if (degree > 1) {
        for (std::size_t i = 0; i < groups.size(); ++i) {
            Group &g = groups[i];
            if (g.line == line && g.kind == kind &&
                g.members < degree &&
                std::abs(queuePos - g.leaderPos) < degree) {
                ++g.members;
                return {true, true, false, static_cast<int>(i)};
            }
        }
    }

    if (portsUsed >= ports)
        return {false, false, false, -1};

    // Interleaved mode: the bank holding this line must be free.
    std::size_t bank = 0;
    if (banks > 0) {
        bank = static_cast<std::size_t>(line) &
               static_cast<std::size_t>(banks - 1);
        if (bankBusy[bank])
            return {false, false, true, -1};
    }

    ++portsUsed;
    if (banks > 0)
        bankBusy[bank] = true;
    groups.push_back(Group{line, kind, queuePos, 1, 0});
    return {true, false, false, static_cast<int>(groups.size()) - 1};
}

void
PortScheduler::setGroupCompletion(int groupId, Cycle completeAt)
{
    groups.at(static_cast<std::size_t>(groupId)).completeAt = completeAt;
}

Cycle
PortScheduler::groupCompletion(int groupId) const
{
    return groups.at(static_cast<std::size_t>(groupId)).completeAt;
}

} // namespace ddsim::core
