/**
 * @file
 * Small string utilities shared by the assembler, CLI parsing and the
 * stats formatter.
 */

#ifndef DDSIM_UTIL_STR_HH_
#define DDSIM_UTIL_STR_HH_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ddsim {

/** Strip leading and trailing whitespace. */
std::string_view trim(std::string_view s);

/** Split on a delimiter character; empty fields are preserved. */
std::vector<std::string> split(std::string_view s, char delim);

/** Split on any run of whitespace; empty fields are dropped. */
std::vector<std::string> splitWs(std::string_view s);

/** True if @p s starts with @p prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** ASCII lower-case copy. */
std::string toLower(std::string_view s);

/** Levenshtein distance, for did-you-mean suggestions. */
std::size_t editDistance(std::string_view a, std::string_view b);

/**
 * Parse a signed integer with optional 0x prefix and +/- sign.
 * @return true on success, false on malformed input or overflow.
 */
bool parseInt(std::string_view s, std::int64_t &out);

/** Parse a double. @return true on success. */
bool parseDouble(std::string_view s, double &out);

/**
 * Parse a size with an optional K/M suffix (powers of two), e.g. "2K"
 * -> 2048. @return true on success.
 */
bool parseSize(std::string_view s, std::uint64_t &out);

} // namespace ddsim

#endif // DDSIM_UTIL_STR_HH_
