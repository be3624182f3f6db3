/**
 * @file
 * Age-ordered slot bitmaps: one bit per slot of a circular buffer
 * (the ROB, a memory queue), walked oldest first from the buffer's
 * head. The issue stage's issuable set and the memory queues' load
 * walk both visit only the slots whose bit is set this way.
 */

#ifndef DDSIM_CORE_AGE_BITS_HH_
#define DDSIM_CORE_AGE_BITS_HH_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ddsim::core {

/** Set @p slot's bit. */
inline void
setAgeBit(std::vector<std::uint64_t> &bits, int slot)
{
    bits[static_cast<std::size_t>(slot) >> 6] |= std::uint64_t{1}
                                                 << (slot & 63);
}

/** Clear @p slot's bit. */
inline void
clearAgeBit(std::vector<std::uint64_t> &bits, int slot)
{
    bits[static_cast<std::size_t>(slot) >> 6] &=
        ~(std::uint64_t{1} << (slot & 63));
}

/**
 * Call f(slot) for every set bit among the @p count slots that start
 * at @p head of a circular buffer of @p capacity slots, oldest first,
 * until f returns false. Each word is copied before its slots are
 * visited: a bit f sets or clears in a word already copied takes
 * effect on the next walk.
 *
 * @return false when f stopped the walk.
 */
template <class F>
bool
forEachAgeOrdered(const std::vector<std::uint64_t> &bits, int head,
                  int count, int capacity, F &&f)
{
    auto range = [&](int lo, int hi) { // slots [lo, hi)
        for (int w = lo >> 6; w <= (hi - 1) >> 6; ++w) {
            int base = w << 6;
            std::uint64_t word = bits[static_cast<std::size_t>(w)];
            if (base < lo)
                word &= ~std::uint64_t{0} << (lo - base);
            if (base + 64 > hi)
                word &= (std::uint64_t{1} << (hi - base)) - 1;
            while (word) {
                int slot = base + std::countr_zero(word);
                word &= word - 1;
                if (!f(slot))
                    return false;
            }
        }
        return true;
    };
    if (count <= 0)
        return true;
    if (head + count <= capacity)
        return range(head, head + count);
    return range(head, capacity) && range(0, head + count - capacity);
}

/**
 * forEachAgeOrdered's mirror: the same slots and the same per-word
 * copy, youngest first.
 */
template <class F>
bool
forEachAgeOrderedYoungestFirst(const std::vector<std::uint64_t> &bits,
                               int head, int count, int capacity, F &&f)
{
    auto range = [&](int lo, int hi) { // slots [lo, hi), high first
        for (int w = (hi - 1) >> 6; w >= lo >> 6; --w) {
            int base = w << 6;
            std::uint64_t word = bits[static_cast<std::size_t>(w)];
            if (base < lo)
                word &= ~std::uint64_t{0} << (lo - base);
            if (base + 64 > hi)
                word &= (std::uint64_t{1} << (hi - base)) - 1;
            while (word) {
                int bit = 63 - std::countl_zero(word);
                word &= ~(std::uint64_t{1} << bit);
                if (!f(base + bit))
                    return false;
            }
        }
        return true;
    };
    if (count <= 0)
        return true;
    if (head + count <= capacity)
        return range(head, head + count);
    return range(0, head + count - capacity) && range(head, capacity);
}

} // namespace ddsim::core

#endif // DDSIM_CORE_AGE_BITS_HH_
