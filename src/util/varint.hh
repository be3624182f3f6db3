/**
 * @file
 * Unsigned LEB128 varints, the integer encoding of both trace formats
 * (ddsim-xtrace-v1 and the ddtrace pipeline trace): seven bits per
 * byte, least significant group first, the top bit set on every byte
 * but the last. A 64-bit value takes 1 to 10 bytes, and the tenth byte
 * can hold only bit 63.
 */

#ifndef DDSIM_UTIL_VARINT_HH_
#define DDSIM_UTIL_VARINT_HH_

#include <cstdint>
#include <ostream>

namespace ddsim::varint {

/** The longest encoding of a 64-bit value. */
constexpr int kMaxBytes = 10;

/** Write @p v to @p os in 1 to kMaxBytes bytes. */
inline void
put(std::ostream &os, std::uint64_t v)
{
    char buf[kMaxBytes];
    int n = 0;
    do {
        char byte = static_cast<char>(v & 0x7f);
        v >>= 7;
        if (v)
            byte |= static_cast<char>(0x80);
        buf[n++] = byte;
    } while (v);
    os.write(buf, n);
}

/** How get() ended. Each format maps the failures to its own error. */
enum class Status
{
    Ok,
    Truncated, ///< The input ended inside the varint.
    Overflow,  ///< The tenth byte holds more than bit 63.
    TooLong,   ///< The tenth byte asks for an eleventh.
};

/**
 * Decode one varint into @p v. @p next returns the next input byte
 * (0-255), or a negative value at the end of the input. get() stops
 * right after the byte that ends or breaks the varint, so a caller's
 * read position names that byte whichever way it ends.
 */
template <class NextByte>
Status
get(NextByte &&next, std::uint64_t &v)
{
    v = 0;
    for (int shift = 0;; shift += 7) {
        const int c = next();
        if (c < 0)
            return Status::Truncated;
        // Anything above bit 63 would be shifted out silently.
        if (shift == 63 && (c & 0x7f) > 1)
            return Status::Overflow;
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80))
            return Status::Ok;
        if (shift == 63)
            return Status::TooLong;
    }
}

} // namespace ddsim::varint

#endif // DDSIM_UTIL_VARINT_HH_
