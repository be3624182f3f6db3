#include "vm/memory.hh"

#include <cstring>

#include "util/log.hh"

namespace ddsim::vm {

std::uint8_t *
SparseMemory::missData(Addr addr) const
{
    Addr base = addr & ~(PageBytes - 1);
    auto it = pages.find(base);
    if (it == pages.end())
        it = pages.emplace(base, Page(PageBytes, 0)).first;
    Slot &s = slotFor(addr);
    s.base = base;
    s.data = it->second.data();
    return s.data + (addr & (PageBytes - 1));
}

void
SparseMemory::misaligned(Addr addr, Addr align)
{
    fatal("unaligned %u-byte access at 0x%08x", align, addr);
}

double
SparseMemory::readDoubleStraddling(Addr addr) const
{
    std::uint8_t buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = readByte(addr + static_cast<Addr>(i));
    double v;
    std::memcpy(&v, buf, 8);
    return v;
}

void
SparseMemory::writeDoubleStraddling(Addr addr, double value)
{
    std::uint8_t buf[8];
    std::memcpy(buf, &value, 8);
    for (int i = 0; i < 8; ++i)
        writeByte(addr + static_cast<Addr>(i), buf[i]);
}

void
SparseMemory::writeBlock(Addr addr, const std::uint8_t *src,
                         std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        writeByte(addr + static_cast<Addr>(i), src[i]);
}

} // namespace ddsim::vm
