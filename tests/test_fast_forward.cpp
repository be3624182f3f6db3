/**
 * @file
 * Fast-data-forwarding match tests: the offset-matching rules of
 * Section 2.2.2 — exact match, epoch boundaries, conservative stops,
 * and disjointness reasoning.
 */

#include <gtest/gtest.h>

#include "core/fast_forward.hh"
#include "isa/regs.hh"

using namespace ddsim;
using namespace ddsim::core;
namespace reg = ddsim::isa::reg;

namespace {

QueueEntry
entry(bool isStore, RegId base, std::int32_t offset,
      std::uint32_t version, std::uint8_t size = 4)
{
    QueueEntry e;
    e.valid = true;
    e.isStore = isStore;
    e.isLoad = !isStore;
    e.baseReg = base;
    e.offset = offset;
    e.baseVersion = version;
    e.size = size;
    return e;
}

/** Helper: entries[0] is youngest-older, increasing age. */
int
match(const std::vector<QueueEntry> &olderYoungestFirst,
      const QueueEntry &load)
{
    std::vector<QueueEntry> storage = olderYoungestFirst;
    auto youngestFirst = [&storage](auto &&visit) {
        for (int i = 0; i < static_cast<int>(storage.size()); ++i)
            if (!visit(i))
                return;
    };
    return findFastForwardStore(storage, youngestFirst, load);
}

} // namespace

TEST(FastForward, ExactMatchFound)
{
    auto load = entry(false, reg::sp, 8, 1);
    int m = match({entry(true, reg::sp, 8, 1)}, load);
    EXPECT_EQ(m, 0);
}

TEST(FastForward, DifferentOffsetSkipsToOlderMatch)
{
    auto load = entry(false, reg::sp, 8, 1);
    int m = match({entry(true, reg::sp, 16, 1),  // disjoint, skip
                   entry(true, reg::sp, 8, 1)},  // match
                  load);
    EXPECT_EQ(m, 1);
}

TEST(FastForward, YoungestMatchWins)
{
    auto load = entry(false, reg::sp, 8, 1);
    int m = match({entry(true, reg::sp, 8, 1),
                   entry(true, reg::sp, 8, 1)},
                  load);
    EXPECT_EQ(m, 0);
}

TEST(FastForward, DifferentVersionStopsScan)
{
    // A store from a different sp epoch could alias anything; even an
    // apparently-matching older store must not be used.
    auto load = entry(false, reg::sp, 8, 2);
    int m = match({entry(true, reg::sp, 8, 1),   // other epoch: stop
                   entry(true, reg::sp, 8, 2)},  // unreachable
                  load);
    EXPECT_EQ(m, -1);
}

TEST(FastForward, DifferentBaseStopsScan)
{
    auto load = entry(false, reg::sp, 8, 1);
    int m = match({entry(true, reg::t0, 8, 1),
                   entry(true, reg::sp, 8, 1)},
                  load);
    EXPECT_EQ(m, -1);
}

TEST(FastForward, PartialOverlapBlocks)
{
    // sb to a byte inside the loaded word: same epoch, overlapping
    // but not an exact match.
    auto load = entry(false, reg::sp, 8, 1, 4);
    int m = match({entry(true, reg::sp, 9, 1, 1)}, load);
    EXPECT_EQ(m, -1);
}

TEST(FastForward, SizeMismatchAtSameOffsetBlocks)
{
    auto load = entry(false, reg::sp, 8, 1, 4);
    int m = match({entry(true, reg::sp, 8, 1, 8)}, load);
    EXPECT_EQ(m, -1);
}

TEST(FastForward, InterveningLoadsIgnored)
{
    auto load = entry(false, reg::sp, 8, 1);
    int m = match({entry(false, reg::sp, 8, 1),   // older load: skip
                   entry(false, reg::t3, 0, 9),   // unrelated load
                   entry(true, reg::sp, 8, 1)},   // match
                  load);
    EXPECT_EQ(m, 2);
}

TEST(FastForward, AdjacentDisjointWordsSkipped)
{
    // Store to [4,8), load from [8,12): provably disjoint.
    auto load = entry(false, reg::sp, 8, 1, 4);
    int m = match({entry(true, reg::sp, 4, 1, 4),
                   entry(true, reg::sp, 8, 1, 4)},
                  load);
    EXPECT_EQ(m, 1);
}

TEST(FastForward, DoubleWordExactMatch)
{
    auto load = entry(false, reg::sp, 16, 3, 8);
    int m = match({entry(true, reg::sp, 16, 3, 8)}, load);
    EXPECT_EQ(m, 0);
}

TEST(FastForward, EmptyQueueNoMatch)
{
    auto load = entry(false, reg::sp, 8, 1);
    EXPECT_EQ(match({}, load), -1);
}

TEST(FastForward, InvalidEntriesSkipped)
{
    auto load = entry(false, reg::sp, 8, 1);
    auto dead = entry(true, reg::sp, 8, 1);
    dead.valid = false;
    int m = match({dead, entry(true, reg::sp, 8, 1)}, load);
    EXPECT_EQ(m, 1);
}
