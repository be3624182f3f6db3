#include "cpu/fu_pool.hh"

#include "util/log.hh"

namespace ddsim::cpu {

using isa::FuClass;

FuPool::FuPool(const config::MachineConfig &cfg)
{
    busyUntil[0].assign(static_cast<std::size_t>(cfg.numIntAlu), 0);
    busyUntil[1].assign(static_cast<std::size_t>(cfg.numIntMultDiv), 0);
    busyUntil[2].assign(static_cast<std::size_t>(cfg.numFpAlu), 0);
    busyUntil[3].assign(static_cast<std::size_t>(cfg.numFpMultDiv), 0);
}

void
FuPool::noPool(FuClass fc)
{
    panic("no functional unit pool for class %d", static_cast<int>(fc));
}

int
FuPool::poolSize(FuClass fc) const
{
    return static_cast<int>(busyUntil[poolIndex(fc)].size());
}

} // namespace ddsim::cpu
