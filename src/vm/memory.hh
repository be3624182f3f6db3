/**
 * @file
 * Sparse paged memory for the functional machine. Pages are allocated
 * on first touch and zero-filled, so the 32-bit address space costs
 * only what a program actually uses.
 */

#ifndef DDSIM_VM_MEMORY_HH_
#define DDSIM_VM_MEMORY_HH_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/types.hh"

namespace ddsim::vm {

/** Byte-addressable sparse memory image. */
class SparseMemory
{
  public:
    static constexpr Addr PageBytes = 4096;

    SparseMemory() = default;
    // Copies start with an empty page cache: a copied slot would
    // point into the source's pages.
    SparseMemory(const SparseMemory &o) : pages(o.pages) {}
    SparseMemory &
    operator=(const SparseMemory &o)
    {
        pages = o.pages;
        slots.fill(Slot{});
        return *this;
    }

    std::uint8_t readByte(Addr addr) const { return *data(addr); }
    void writeByte(Addr addr, std::uint8_t value) { *data(addr) = value; }

    /** Little-endian word access; requires 4-byte alignment. */
    Word
    readWord(Addr addr) const
    {
        checkAlign(addr, 4);
        Word v;
        std::memcpy(&v, data(addr), 4);
        return v;
    }
    void
    writeWord(Addr addr, Word value)
    {
        checkAlign(addr, 4);
        std::memcpy(data(addr), &value, 4);
    }

    /**
     * 64-bit double access; requires 4-byte alignment, so it may
     * straddle a page boundary (handled out of line).
     */
    double
    readDouble(Addr addr) const
    {
        checkAlign(addr, 4);
        if (!inOnePage(addr, 8)) [[unlikely]]
            return readDoubleStraddling(addr);
        double v;
        std::memcpy(&v, data(addr), 8);
        return v;
    }
    void
    writeDouble(Addr addr, double value)
    {
        checkAlign(addr, 4);
        if (!inOnePage(addr, 8)) [[unlikely]] {
            writeDoubleStraddling(addr, value);
            return;
        }
        std::memcpy(data(addr), &value, 8);
    }

    /** Bulk initialization (program loading). */
    void writeBlock(Addr addr, const std::uint8_t *src, std::size_t len);

    /** Number of pages currently allocated (footprint metric). */
    std::size_t pagesAllocated() const { return pages.size(); }

  private:
    using Page = std::vector<std::uint8_t>;
    mutable std::unordered_map<Addr, Page> pages;

    /**
     * Direct-mapped page-pointer cache: the stack, globals and a few
     * arrays stay resident, so the map lookup is skipped for nearly
     * every access. Page buffers never move once allocated (the map
     * may rehash, but that moves the vector object, not its heap
     * data), so cached pointers stay valid until the map is replaced.
     */
    struct Slot
    {
        Addr base = 1; ///< Never page-aligned: always misses.
        std::uint8_t *data = nullptr;
    };
    static constexpr std::size_t NumSlots = 16;
    mutable std::array<Slot, NumSlots> slots{};

    Slot &slotFor(Addr addr) const
    {
        return slots[(addr / PageBytes) % NumSlots];
    }

    /** Byte pointer into the page holding @p addr (allocates it). */
    std::uint8_t *
    data(Addr addr) const
    {
        const Slot &s = slotFor(addr);
        if (s.base == (addr & ~(PageBytes - 1))) [[likely]]
            return s.data + (addr & (PageBytes - 1));
        return missData(addr);
    }
    std::uint8_t *missData(Addr addr) const;

    static bool
    inOnePage(Addr addr, Addr len)
    {
        return (addr & (PageBytes - 1)) <= PageBytes - len;
    }
    double readDoubleStraddling(Addr addr) const;
    void writeDoubleStraddling(Addr addr, double value);

    static void
    checkAlign(Addr addr, Addr align)
    {
        if (addr % align != 0) [[unlikely]]
            misaligned(addr, align);
    }
    [[noreturn]] static void misaligned(Addr addr, Addr align);
};

} // namespace ddsim::vm

#endif // DDSIM_VM_MEMORY_HH_
