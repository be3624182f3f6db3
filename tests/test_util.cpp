/**
 * @file
 * Unit tests for the util module: logging, RNG, string helpers,
 * varints, address-space layout.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "util/log.hh"
#include "util/rng.hh"
#include "util/str.hh"
#include "util/types.hh"
#include "util/varint.hh"

using namespace ddsim;

TEST(Log, FormatProducesPrintfOutput)
{
    EXPECT_EQ(format("x=%d y=%s", 42, "ok"), "x=42 y=ok");
    EXPECT_EQ(format("%08x", 0xabcu), "00000abc");
}

TEST(Log, FatalThrowsFatalError)
{
    setQuiet(true);
    EXPECT_THROW(fatal("bad config %d", 1), FatalError);
}

TEST(Log, PanicThrowsPanicError)
{
    setQuiet(true);
    EXPECT_THROW(panic("bug %d", 2), PanicError);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, RangeStaysInBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.range(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    // Mean should be near 0.5.
    EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(Rng, WeightedRespectsZeroWeights)
{
    Rng r(11);
    std::vector<double> w = {0.0, 1.0, 0.0};
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(r.weighted(w), 1u);
}

TEST(Rng, GeometricRespectsBounds)
{
    Rng r(13);
    for (int i = 0; i < 500; ++i) {
        int v = r.geometric(2, 8, 0.5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 8);
    }
}

TEST(Str, TrimStripsWhitespace)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("\t\n"), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(Str, SplitPreservesEmptyFields)
{
    auto v = split("a,,b", ',');
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[1], "");
    EXPECT_EQ(v[2], "b");
}

TEST(Str, SplitWsDropsEmptyFields)
{
    auto v = splitWs("  a \t b  c ");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[2], "c");
}

TEST(Str, ParseIntHandlesHexAndSign)
{
    std::int64_t v;
    EXPECT_TRUE(parseInt("0x10", v));
    EXPECT_EQ(v, 16);
    EXPECT_TRUE(parseInt("-42", v));
    EXPECT_EQ(v, -42);
    EXPECT_FALSE(parseInt("12abc", v));
    EXPECT_FALSE(parseInt("", v));
}

TEST(Str, ParseSizeHandlesSuffixes)
{
    std::uint64_t v;
    EXPECT_TRUE(parseSize("2K", v));
    EXPECT_EQ(v, 2048u);
    EXPECT_TRUE(parseSize("1M", v));
    EXPECT_EQ(v, 1024u * 1024u);
    EXPECT_TRUE(parseSize("512", v));
    EXPECT_EQ(v, 512u);
    EXPECT_FALSE(parseSize("x", v));
}

TEST(Str, EditDistanceCountsInsertsDeletesAndSubstitutions)
{
    EXPECT_EQ(editDistance("", ""), 0u);
    EXPECT_EQ(editDistance("", "live"), 4u);
    EXPECT_EQ(editDistance("replay", ""), 6u);
    EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
    EXPECT_EQ(editDistance("sampeld", "sampled"), 2u);
    EXPECT_EQ(editDistance("lve", "live"), 1u);
    EXPECT_EQ(editDistance("workers", "worker"), 1u);
}

namespace {

/** Decode one varint from @p bytes; @p used gets the bytes read. */
varint::Status
decodeVarint(const std::string &bytes, std::uint64_t &v, std::size_t &used)
{
    used = 0;
    return varint::get(
        [&]() -> int {
            return used < bytes.size()
                       ? static_cast<std::uint8_t>(bytes[used++])
                       : -1;
        },
        v);
}

} // namespace

TEST(Varint, BoundaryValuesRoundTrip)
{
    const std::pair<std::uint64_t, std::size_t> cases[] = {
        {0, 1},
        {127, 1},
        {128, 2},
        {std::uint64_t{1} << 63, 10},
        {UINT64_MAX, 10},
    };
    for (const auto &[value, length] : cases) {
        std::ostringstream os;
        varint::put(os, value);
        const std::string bytes = os.str();
        EXPECT_EQ(bytes.size(), length) << value;
        std::uint64_t v = 1;
        std::size_t used = 0;
        EXPECT_EQ(decodeVarint(bytes, v, used), varint::Status::Ok)
            << value;
        EXPECT_EQ(v, value);
        EXPECT_EQ(used, bytes.size()) << value;
    }
}

TEST(Varint, TenthByteHoldsOnlyBit63)
{
    const std::string nine(9, '\x80');
    std::uint64_t v = 0;
    std::size_t used = 0;
    EXPECT_EQ(decodeVarint(nine + '\x01', v, used), varint::Status::Ok);
    EXPECT_EQ(v, std::uint64_t{1} << 63);
    EXPECT_EQ(decodeVarint(nine + '\x02', v, used),
              varint::Status::Overflow);
    EXPECT_EQ(used, 10u);
}

TEST(Varint, RejectsAnEleventhByteAndTruncatedInput)
{
    const std::string nine(9, '\x80');
    std::uint64_t v = 0;
    std::size_t used = 0;
    EXPECT_EQ(decodeVarint(nine + '\x81' + '\x00', v, used),
              varint::Status::TooLong);
    EXPECT_EQ(used, 10u);
    EXPECT_EQ(decodeVarint("", v, used), varint::Status::Truncated);
    EXPECT_EQ(decodeVarint("\x80\x80", v, used),
              varint::Status::Truncated);
    EXPECT_EQ(used, 2u);
}

TEST(Layout, StackRegionDetection)
{
    EXPECT_TRUE(layout::isStackAddr(layout::StackBase));
    EXPECT_TRUE(layout::isStackAddr(layout::StackBase - 4096));
    EXPECT_FALSE(layout::isStackAddr(layout::HeapBase));
    EXPECT_FALSE(layout::isStackAddr(layout::DataBase));
    EXPECT_FALSE(layout::isStackAddr(layout::TextBase));
}
