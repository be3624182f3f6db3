/**
 * @file
 * Functional unit pool: Table 1's 16 integer ALUs, 16 FP ALUs and the
 * 4 integer + 4 FP combined MULT/DIV units. ALUs and multipliers are
 * pipelined (one issue per unit per cycle); dividers occupy their unit
 * for the full operation latency.
 */

#ifndef DDSIM_CPU_FU_POOL_HH_
#define DDSIM_CPU_FU_POOL_HH_

#include <array>
#include <vector>

#include "config/machine_config.hh"
#include "isa/opcode.hh"
#include "util/types.hh"

namespace ddsim::cpu {

/** Tracks functional unit availability cycle by cycle. */
class FuPool
{
  public:
    explicit FuPool(const config::MachineConfig &cfg);

    /**
     * Try to start an operation of class @p fc at cycle @p now.
     * @return true and reserves a unit on success.
     */
    bool
    tryIssue(isa::FuClass fc, Cycle now, int latency, bool pipelined)
    {
        std::size_t pi = poolIndex(fc);
        auto &pool = busyUntil[pi];
        std::size_t n = pool.size();
        std::size_t start = rotor[pi];
        for (std::size_t k = 0; k < n; ++k) {
            std::size_t u = start + k;
            if (u >= n)
                u -= n;
            Cycle &busy = pool[u];
            if (busy <= now) {
                // A pipelined unit accepts a new operation next cycle;
                // an unpipelined one (the divides) is held for the
                // duration.
                busy = pipelined ? now + 1
                                 : now + static_cast<Cycle>(latency);
                rotor[pi] = u + 1 < n ? u + 1 : 0;
                return true;
            }
        }
        return false;
    }

    /** Units in the pool serving class @p fc. */
    int poolSize(isa::FuClass fc) const;

  private:
    // Physical pools: IntAlu, IntMultDiv, FpAlu, FpMultDiv.
    static constexpr int NumPools = 4;
    std::array<std::vector<Cycle>, NumPools> busyUntil;
    /**
     * Round-robin scan start per pool. Unit identity is invisible to
     * the model (tryIssue answers "is any unit free"), so starting
     * the search after the last grant changes nothing observable but
     * makes the common grant O(1) instead of a scan over the units
     * already granted this cycle.
     */
    std::array<std::size_t, NumPools> rotor{};

    static std::size_t
    poolIndex(isa::FuClass fc)
    {
        switch (fc) {
          case isa::FuClass::IntAlu:
            return 0;
          case isa::FuClass::IntMult:
          case isa::FuClass::IntDiv:
            return 1;
          case isa::FuClass::FpAlu:
            return 2;
          case isa::FuClass::FpMult:
          case isa::FuClass::FpDiv:
            return 3;
          case isa::FuClass::MemPort:
          case isa::FuClass::NumClasses:
            break;
        }
        noPool(fc);
    }
    [[noreturn]] static void noPool(isa::FuClass fc);
};

} // namespace ddsim::cpu

#endif // DDSIM_CPU_FU_POOL_HH_
