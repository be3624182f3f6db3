/**
 * @file
 * MemQueue tests: allocation/release discipline, disambiguation,
 * store-to-load forwarding, fast forwarding, port limits, combining
 * on the cache ports, and store commit behaviour.
 */

#include <gtest/gtest.h>

#include "config/machine_config.hh"
#include "core/mem_queue.hh"
#include "isa/regs.hh"
#include "mem/cache.hh"
#include "mem/main_memory.hh"
#include "stats/group.hh"
#include "util/log.hh"

using namespace ddsim;
using namespace ddsim::core;
namespace reg = ddsim::isa::reg;

namespace {

struct Rig
{
    stats::Group root{nullptr, ""};
    mem::MainMemory memory{&root, 50};
    mem::Cache cache;
    MemQueue q;
    InstSeq nextSeq = 0;
    std::vector<LoadCompletion> done;

    explicit Rig(QueuePolicy policy, int size = 16)
        : cache(&root, "c",
                config::CacheParams{2048, 1, 32, 1, policy.ports},
                &memory),
          q(&root, "q", size, &cache, nullptr, policy)
    {}

    int
    addLoad(RegId base = reg::sp, std::int32_t off = 0,
            std::uint32_t ver = 1, std::uint8_t size = 4)
    {
        InstSeq seq = nextSeq++;
        return q.allocate(seq, static_cast<int>(seq) + 1, true, size,
                          base, off, ver);
    }

    int
    addStore(RegId base = reg::sp, std::int32_t off = 0,
             std::uint32_t ver = 1, std::uint8_t size = 4)
    {
        InstSeq seq = nextSeq++;
        return q.allocate(seq, static_cast<int>(seq) + 1, false, size,
                          base, off, ver);
    }

    std::vector<LoadCompletion>
    tick(Cycle now)
    {
        done.clear();
        q.tick(now, done);
        return done;
    }
};

QueuePolicy
basicPolicy(int ports = 2)
{
    QueuePolicy p;
    p.ports = ports;
    p.combining = 1;
    p.fastForward = false;
    p.forwardLatency = 1;
    return p;
}

const Addr stackAddr = layout::StackBase - 256;

} // namespace

TEST(MemQueue, LoadIssuesOnceAddressKnown)
{
    Rig r(basicPolicy());
    int s = r.addLoad();
    EXPECT_TRUE(r.tick(0).empty());     // no address yet
    r.q.setAddress(s, stackAddr, 1, false);
    auto done = r.tick(1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].slot, s);
    // Cold miss: 1 (hit lat) + 50 (memory).
    EXPECT_EQ(done[0].readyAt, 1u + 1u + 50u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

TEST(MemQueue, AddressNotReadyUntilItsCycle)
{
    Rig r(basicPolicy());
    int s = r.addLoad();
    r.q.setAddress(s, stackAddr, 5, false);
    EXPECT_TRUE(r.tick(4).empty());
    EXPECT_EQ(r.tick(5).size(), 1u);
}

TEST(MemQueue, LoadBlockedByUnknownOlderStoreAddress)
{
    Rig r(basicPolicy());
    int st = r.addStore();
    int ld = r.addLoad();
    r.q.setAddress(ld, stackAddr, 1, false);
    EXPECT_TRUE(r.tick(1).empty());     // store address unknown
    EXPECT_GT(r.q.disambiguationStalls.value(), 0u);
    r.q.setAddress(st, stackAddr + 64, 2, false);
    EXPECT_EQ(r.tick(2).size(), 1u);    // different line, proceeds
}

TEST(MemQueue, StoreToLoadForwarding)
{
    Rig r(basicPolicy());
    int st = r.addStore();
    int ld = r.addLoad();
    r.q.setAddress(st, stackAddr, 1, false);
    r.q.setAddress(ld, stackAddr, 1, false);
    r.q.setStoreData(st, 3);
    EXPECT_TRUE(r.tick(2).empty());     // data not ready until 3
    auto done = r.tick(3);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].readyAt, 4u);     // 1-cycle forward
    EXPECT_EQ(r.q.loadsForwarded.value(), 1u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 0u);
    EXPECT_EQ(r.cache.accesses.value(), 0u);
}

TEST(MemQueue, PartialOverlapWaitsForCommit)
{
    Rig r(basicPolicy());
    int st = r.addStore(reg::sp, 0, 1, 1); // byte store
    int ld = r.addLoad(reg::sp, 0, 1, 4);  // word load, overlaps
    r.q.setAddress(st, stackAddr + 1, 1, false);
    r.q.setAddress(ld, stackAddr, 1, false);
    r.q.setStoreData(st, 1);
    EXPECT_TRUE(r.tick(2).empty());     // cannot forward a partial
    EXPECT_TRUE(r.q.commitStore(st, 3));
    auto done = r.tick(4);
    ASSERT_EQ(done.size(), 1u);         // reads merged value from cache
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

TEST(MemQueue, PortLimitDelaysLoads)
{
    Rig r(basicPolicy(1));
    int a = r.addLoad(reg::sp, 0);
    int b = r.addLoad(reg::sp, 64);
    r.q.setAddress(a, stackAddr, 1, false);
    r.q.setAddress(b, stackAddr + 64, 1, false);
    auto first = r.tick(1);
    EXPECT_EQ(first.size(), 1u);        // one port -> one load
    EXPECT_GT(r.q.portDenials.value(), 0u);
    auto second = r.tick(2);
    EXPECT_EQ(second.size(), 1u);
}

TEST(MemQueue, OlderLoadWinsThePortWhateverTheAddressOrder)
{
    // One port, and the younger load's address arrives first; both
    // become usable in the same cycle. The walk is oldest first from
    // the queue head, so the older load wins even when it sits in the
    // queue's last slot and the younger one has wrapped to slot 0.
    Rig r(basicPolicy(1), 4);
    for (int i = 0; i < 3; ++i)
        r.q.release(r.addLoad());
    int older = r.addLoad(reg::sp, 0);
    int younger = r.addLoad(reg::sp, 64);
    ASSERT_EQ(older, 3);
    ASSERT_EQ(younger, 0);
    r.q.setAddress(younger, stackAddr + 64, 2, false);
    EXPECT_TRUE(r.tick(0).empty());
    r.q.setAddress(older, stackAddr, 2, false);
    EXPECT_TRUE(r.tick(1).empty());
    auto first = r.tick(2);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].slot, older);
    auto second = r.tick(3);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].slot, younger);
}

TEST(MemQueue, TwoPortsServiceTwoLoads)
{
    Rig r(basicPolicy(2));
    int a = r.addLoad(reg::sp, 0);
    int b = r.addLoad(reg::sp, 64);
    r.q.setAddress(a, stackAddr, 1, false);
    r.q.setAddress(b, stackAddr + 64, 1, false);
    EXPECT_EQ(r.tick(1).size(), 2u);
}

TEST(MemQueue, CombiningLetsSameLineLoadsShareAPort)
{
    QueuePolicy p = basicPolicy(1);
    p.combining = 2;
    Rig r(p);
    int a = r.addLoad(reg::sp, 0);
    int b = r.addLoad(reg::sp, 4);
    r.q.setAddress(a, stackAddr, 1, false);
    r.q.setAddress(b, stackAddr + 4, 1, false); // same 32B line
    auto done = r.tick(1);
    EXPECT_EQ(done.size(), 2u);
    EXPECT_EQ(r.q.combinedAccesses.value(), 1u);
    EXPECT_EQ(r.cache.accesses.value(), 1u);    // one wide access
    // Both complete at the same time.
    EXPECT_EQ(done[0].readyAt, done[1].readyAt);
}

TEST(MemQueue, FastForwardCompletesBeforeAddressGeneration)
{
    QueuePolicy p = basicPolicy(2);
    p.fastForward = true;
    Rig r(p);
    int st = r.addStore(reg::sp, 8, 7);
    int ld = r.addLoad(reg::sp, 8, 7);  // offset-matched at allocate
    // Note: neither address has been computed.
    r.q.setStoreData(st, 2);
    auto done = r.tick(2);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].slot, ld);
    EXPECT_EQ(done[0].readyAt, 3u);
    EXPECT_EQ(r.q.loadsFastForwarded.value(), 1u);
    EXPECT_EQ(r.cache.accesses.value(), 0u);
}

TEST(MemQueue, FastForwardDisabledByPolicy)
{
    Rig r(basicPolicy(2)); // fastForward = false
    r.addStore(reg::sp, 8, 7);
    int ld = r.addLoad(reg::sp, 8, 7);
    EXPECT_EQ(r.q.entry(ld).fastFwdSlot, -1);
}

TEST(MemQueue, FastForwardWaitsForStoreData)
{
    QueuePolicy p = basicPolicy(2);
    p.fastForward = true;
    Rig r(p);
    int st = r.addStore(reg::sp, 8, 7);
    r.addLoad(reg::sp, 8, 7);
    EXPECT_TRUE(r.tick(0).empty());
    r.q.setStoreData(st, 5);
    EXPECT_TRUE(r.tick(4).empty());
    EXPECT_EQ(r.tick(5).size(), 1u);
}

TEST(MemQueue, FastForwardFallsBackWhenStoreLeft)
{
    QueuePolicy p = basicPolicy(2);
    p.fastForward = true;
    Rig r(p);
    int st = r.addStore(reg::sp, 8, 7);
    int ld = r.addLoad(reg::sp, 8, 7);
    EXPECT_EQ(r.q.entry(ld).fastFwdSlot, st);
    // The store's address resolves, data arrives, it commits and
    // leaves the queue before the load fires.
    r.q.setAddress(st, stackAddr + 8, 1, false);
    r.q.setStoreData(st, 1);
    EXPECT_TRUE(r.q.commitStore(st, 2));
    r.q.release(st);
    // Now the load needs its own address and the cache.
    EXPECT_TRUE(r.tick(3).empty());
    r.q.setAddress(ld, stackAddr + 8, 4, false);
    auto done = r.tick(4);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
    EXPECT_EQ(r.q.loadsFastForwarded.value(), 0u);
}

TEST(MemQueue, StoreCommitNeedsPort)
{
    Rig r(basicPolicy(1));
    int a = r.addStore(reg::sp, 0);
    int b = r.addStore(reg::sp, 64);
    r.q.setAddress(a, stackAddr, 1, false);
    r.q.setAddress(b, stackAddr + 64, 1, false);
    r.q.setStoreData(a, 1);
    r.q.setStoreData(b, 1);
    EXPECT_TRUE(r.q.commitStore(a, 2));
    EXPECT_FALSE(r.q.commitStore(b, 2)); // port exhausted this cycle
    EXPECT_TRUE(r.q.commitStore(b, 3));
    EXPECT_EQ(r.cache.writeAccesses.value(), 2u);
}

TEST(MemQueue, CommittingStoreTwiceIsIdempotent)
{
    Rig r(basicPolicy(1));
    int a = r.addStore();
    r.q.setAddress(a, stackAddr, 1, false);
    r.q.setStoreData(a, 1);
    EXPECT_TRUE(r.q.commitStore(a, 2));
    EXPECT_TRUE(r.q.commitStore(a, 2));
    EXPECT_EQ(r.cache.writeAccesses.value(), 1u);
}

TEST(MemQueue, ReleaseMustBeInOrder)
{
    setQuiet(true);
    Rig r(basicPolicy());
    r.addLoad();
    int b = r.addLoad();
    EXPECT_THROW(r.q.release(b), PanicError);
}

TEST(MemQueue, FullAndOccupancy)
{
    Rig r(basicPolicy(), 2);
    EXPECT_FALSE(r.q.full());
    int a = r.addLoad();
    r.addLoad();
    EXPECT_TRUE(r.q.full());
    EXPECT_EQ(r.q.occupancy(), 2);
    r.q.release(a);
    EXPECT_FALSE(r.q.full());
    EXPECT_EQ(r.q.occupancy(), 1);
}

TEST(MemQueue, WrapAroundKeepsOrderAndMatching)
{
    // Exercise the circular buffer across several wrap-arounds.
    Rig r(basicPolicy(2), 4);
    for (int round = 0; round < 6; ++round) {
        int st = r.addStore(reg::sp, 0, 1);
        int ld = r.addLoad(reg::sp, 0, 1);
        Cycle base = static_cast<Cycle>(round) * 10 + 1;
        r.q.setAddress(st, stackAddr, base, false);
        r.q.setAddress(ld, stackAddr, base, false);
        r.q.setStoreData(st, base);
        auto done = r.tick(base + 1);
        ASSERT_EQ(done.size(), 1u) << "round " << round;
        EXPECT_TRUE(r.q.commitStore(st, base + 2));
        r.q.release(st);
        r.q.release(ld);
    }
    EXPECT_EQ(r.q.loadsForwarded.value(), 6u);
    EXPECT_EQ(r.q.occupancy(), 0);
}

TEST(MemQueue, PanicsOnBadSlotUsage)
{
    setQuiet(true);
    Rig r(basicPolicy(2));
    int ld = r.addLoad();
    EXPECT_THROW(r.q.setStoreData(ld, 1), PanicError);
    EXPECT_THROW(r.q.commitStore(ld, 1), PanicError);
}

// ---- Adversarial same-line traffic: many stores piled onto one
// address chunk stress the store index and the unknown-address
// barrier in ways the average workload never does.

TEST(MemQueue, SameLineOnlyYoungestOlderStoreForwards)
{
    Rig r(basicPolicy(2), 16);
    // Five word stores to the same address; only the youngest has
    // ready data. A covering load must forward from it.
    int st[5];
    for (int i = 0; i < 5; ++i) {
        st[i] = r.addStore();
        r.q.setAddress(st[i], stackAddr, 1, false);
    }
    int ld = r.addLoad();
    r.q.setAddress(ld, stackAddr, 1, false);
    r.q.setStoreData(st[4], 1);
    auto done = r.tick(1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].slot, ld);
    EXPECT_EQ(r.q.loadsForwarded.value(), 1u);
    EXPECT_EQ(r.cache.accesses.value(), 0u);
}

TEST(MemQueue, SameLineYoungestWithoutDataBlocksLoad)
{
    Rig r(basicPolicy(2), 16);
    // The three older stores all have ready data, but the youngest
    // overlapping store decides — and its data is not ready, so the
    // load must wait (never forward stale data from an older store).
    int st[4];
    for (int i = 0; i < 4; ++i) {
        st[i] = r.addStore();
        r.q.setAddress(st[i], stackAddr, 1, false);
        if (i < 3)
            r.q.setStoreData(st[i], 1);
    }
    int ld = r.addLoad();
    r.q.setAddress(ld, stackAddr, 1, false);
    EXPECT_TRUE(r.tick(1).empty());
    EXPECT_TRUE(r.tick(2).empty());
    r.q.setStoreData(st[3], 3);
    auto done = r.tick(3);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(r.q.loadsForwarded.value(), 1u);
}

TEST(MemQueue, BarrierTracksOldestUnknownStoreOutOfOrder)
{
    Rig r(basicPolicy(2), 16);
    // Four stores with unknown addresses; resolving them youngest
    // first must keep the load blocked until the *oldest* resolves.
    int st[4];
    for (int i = 0; i < 4; ++i)
        st[i] = r.addStore();
    int ld = r.addLoad(reg::sp, 128);
    r.q.setAddress(ld, stackAddr + 128, 1, false);
    for (int i = 3; i >= 1; --i) {
        EXPECT_TRUE(r.tick(static_cast<Cycle>(4 - i)).empty());
        r.q.setAddress(st[i], stackAddr + 8 * i,
                       static_cast<Cycle>(4 - i), false);
    }
    EXPECT_TRUE(r.tick(4).empty()); // st[0] still unknown
    EXPECT_EQ(r.q.disambiguationStalls.value(), 4u);
    r.q.setAddress(st[0], stackAddr, 5, false);
    auto done = r.tick(5); // disjoint addresses: cache access
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

TEST(MemQueue, ChunkSpanningStoreCoversLoadsOnBothSides)
{
    Rig r(basicPolicy(2), 16);
    // A word store straddling an 8-byte chunk boundary (bytes +6..+9)
    // must be visible to byte loads landing in either chunk.
    int st = r.addStore(reg::sp, 6, 1, 4);
    r.q.setAddress(st, stackAddr + 6, 1, false);
    r.q.setStoreData(st, 1);
    int lo = r.addLoad(reg::sp, 6, 1, 1);
    int hi = r.addLoad(reg::sp, 9, 1, 1);
    r.q.setAddress(lo, stackAddr + 6, 1, false);
    r.q.setAddress(hi, stackAddr + 9, 1, false);
    auto done = r.tick(1);
    EXPECT_EQ(done.size(), 2u);
    EXPECT_EQ(r.q.loadsForwarded.value(), 2u);
    EXPECT_EQ(r.cache.accesses.value(), 0u);
}

TEST(MemQueue, CancelledSameLineStoreNeitherBlocksNorForwards)
{
    Rig r(basicPolicy(2), 16);
    // A cancelled replica with a never-resolved address must not act
    // as a barrier; a cancelled resolved store must not forward.
    int unresolved = r.addStore();
    int resolved = r.addStore();
    r.q.setAddress(resolved, stackAddr, 1, false);
    r.q.setStoreData(resolved, 1);
    r.q.cancel(unresolved);
    r.q.cancel(resolved);
    int ld = r.addLoad();
    r.q.setAddress(ld, stackAddr, 1, false);
    auto done = r.tick(1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(r.q.loadsForwarded.value(), 0u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

TEST(MemQueue, ReleasedStoreLeavesTheIndex)
{
    Rig r(basicPolicy(2), 16);
    // Once a same-address store commits and releases, the load must
    // fall through to the cache (which now holds the value) instead
    // of chasing a stale index entry.
    int st = r.addStore();
    r.q.setAddress(st, stackAddr, 1, false);
    r.q.setStoreData(st, 1);
    EXPECT_TRUE(r.q.commitStore(st, 1));
    r.q.release(st);
    int ld = r.addLoad();
    r.q.setAddress(ld, stackAddr, 2, false);
    auto done = r.tick(2);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(r.q.loadsForwarded.value(), 0u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

TEST(MemQueue, LoadSearchesAgainWhenItsStoreIsCancelled)
{
    Rig r(basicPolicy(2));
    int st = r.addStore(reg::sp, 0);
    int ld = r.addLoad(reg::sp, 0);
    r.q.setAddress(st, stackAddr, 1, false);
    r.q.setAddress(ld, stackAddr, 1, false);
    // The load finds the covering store and waits for its data.
    EXPECT_TRUE(r.tick(1).empty());
    EXPECT_TRUE(r.tick(2).empty());
    r.q.cancel(st);
    // Searching again finds no older store: the cache serves it.
    auto done = r.tick(3);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].slot, ld);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
    EXPECT_EQ(r.q.loadsForwarded.value(), 0u);
}

TEST(MemQueue, LoadSearchesAgainWhenItsStoreIsReaddressed)
{
    Rig r(basicPolicy(2));
    int st = r.addStore(reg::sp, 0);
    int ld = r.addLoad(reg::sp, 0);
    r.q.setAddress(st, stackAddr, 1, false);
    r.q.setAddress(ld, stackAddr, 1, false);
    EXPECT_TRUE(r.tick(1).empty()); // found st; no data yet
    // The store moves to another line: the load no longer overlaps it.
    r.q.setAddress(st, stackAddr + 64, 2, false);
    auto done = r.tick(2);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].slot, ld);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

TEST(MemQueue, QueueSatisfiedFraction)
{
    QueuePolicy p = basicPolicy(2);
    p.fastForward = true;
    Rig r(p);
    // One forwarded load, one cache load.
    int st = r.addStore(reg::sp, 8, 7);
    r.addLoad(reg::sp, 8, 7);
    int other = r.addLoad(reg::sp, 128, 7);
    r.q.setStoreData(st, 1);
    r.q.setAddress(st, stackAddr + 8, 1, false);
    r.q.setAddress(other, stackAddr + 128, 1, false);
    r.tick(1);
    r.tick(2);
    EXPECT_DOUBLE_EQ(r.q.queueSatisfiedFrac(), 0.5);
}

// ---- The store search walks back over the ring from the load's slot.

TEST(MemQueue, StoreSearchFindsYoungestOlderOverlapAcrossTheWrap)
{
    Rig r(basicPolicy(2), 8);
    // Move the head to slot 6 so that the entries below wrap.
    for (int i = 0; i < 6; ++i)
        r.q.release(r.addLoad());
    int oldest = r.addStore();  // covers both loads, data ready
    int youngest = r.addStore(); // covers both loads, no data yet
    int other = r.addStore(reg::sp, 64); // another line
    int ld = r.addLoad();
    int later = r.addStore();   // covers both loads, data ready
    int ld2 = r.addLoad();
    ASSERT_EQ(oldest, 6);
    ASSERT_EQ(youngest, 7);
    ASSERT_EQ(other, 0);
    ASSERT_EQ(ld, 1);
    ASSERT_EQ(later, 2);
    ASSERT_EQ(ld2, 3);
    for (int st : {oldest, youngest, later})
        r.q.setAddress(st, stackAddr, 1, false);
    r.q.setAddress(other, stackAddr + 64, 1, false);
    r.q.setAddress(ld, stackAddr, 1, false);
    r.q.setAddress(ld2, stackAddr, 1, false);
    for (int st : {oldest, other, later})
        r.q.setStoreData(st, 1);
    // ld: the store at slot 7, across the wrap, decides, so it waits.
    // ld2: the store at slot 2 decides, not the one across the wrap.
    auto done = r.tick(1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].slot, ld2);
    r.q.setStoreData(youngest, 2);
    done = r.tick(2);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].slot, ld);
    EXPECT_EQ(r.q.loadsForwarded.value(), 2u);
    EXPECT_EQ(r.cache.accesses.value(), 0u);
}

TEST(MemQueue, StoreSearchSkipsCancelledZeroSizeAndAdjacentStores)
{
    Rig r(basicPolicy(2), 16);
    int covering = r.addStore();
    int cancelled = r.addStore();
    int empty = r.addStore(reg::sp, 1, 1, 0);
    int adjacent = r.addStore(reg::sp, 4);
    int ld = r.addLoad();
    r.q.setAddress(covering, stackAddr, 1, false);
    r.q.setStoreData(covering, 1);
    // Younger stores that must not decide: a cancelled covering copy
    // without data, a zero-size store strictly inside the load's
    // bytes, and a store ending where the load's bytes begin.
    r.q.setAddress(cancelled, stackAddr, 1, false);
    r.q.cancel(cancelled);
    r.q.setAddress(empty, stackAddr + 1, 1, false);
    r.q.setAddress(adjacent, stackAddr + 4, 1, false);
    r.q.setAddress(ld, stackAddr, 1, false);
    auto done = r.tick(1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].slot, ld);
    EXPECT_EQ(r.q.loadsForwarded.value(), 1u);
    EXPECT_EQ(r.cache.accesses.value(), 0u);
}

TEST(MemQueue, PartiallyOverlappingYoungerStoreDecides)
{
    Rig r(basicPolicy(2), 16);
    int covering = r.addStore();
    int partial = r.addStore(reg::sp, 2, 1, 1); // one byte of the load
    int ld = r.addLoad();
    r.q.setAddress(covering, stackAddr, 1, false);
    r.q.setAddress(partial, stackAddr + 2, 1, false);
    r.q.setAddress(ld, stackAddr, 1, false);
    r.q.setStoreData(covering, 1);
    r.q.setStoreData(partial, 1);
    // Never forward the older store's stale bytes: wait for the
    // partial store to write the cache, then read it.
    EXPECT_TRUE(r.tick(1).empty());
    EXPECT_TRUE(r.tick(2).empty());
    EXPECT_TRUE(r.q.commitStore(partial, 3));
    auto done = r.tick(3);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(r.q.loadsForwarded.value(), 0u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

// ---- Idle ticks: no load can act, so the tick returns early.

TEST(MemQueue, IdleTickChargesNoStallAndSamplesOccupancy)
{
    Rig r(basicPolicy(2), 8);
    r.addStore();
    r.addLoad(); // no address: cannot act
    for (Cycle now = 0; now < 200; ++now) {
        r.done.clear();
        r.q.tick(now, r.done);
        EXPECT_TRUE(r.done.empty());
        EXPECT_EQ(r.q.disambiguationStalls.value(), 0u) << "cycle " << now;
    }
    // Sampled at cycles 64, 128 and 192, each time holding 2 entries.
    EXPECT_EQ(r.q.occupancyHist.samples(), 3u);
    EXPECT_EQ(r.q.occupancyHist.minValue(), 2u);
    EXPECT_EQ(r.q.occupancyHist.maxValue(), 2u);
}

TEST(MemQueue, IdleTicksKeepTheBarrierWithinCapacity)
{
    Rig r(basicPolicy(2), 4);
    Cycle now = 0;
    // Stores stream through the queue while no load can act; one in
    // three never gets an address before it leaves.
    for (int i = 0; i < 1000; ++i, ++now) {
        int st = r.addStore(reg::sp, 8 * (i % 4));
        if (i % 3 != 0)
            r.q.setAddress(st, stackAddr + 8 * (i % 4), now, false);
        r.tick(now);
        if (r.q.full())
            r.q.release((st + 1) % 4); // the oldest resident slot
        EXPECT_LE(r.q.barrierStores(), r.q.occupancy());
    }
    EXPECT_EQ(r.q.occupancy(), 3);
}

TEST(MemQueue, BusyTickAfterIdleTicksSeesThePerCycleBarrier)
{
    // Two queues see the same pushes. In `perCycle` an old load whose
    // address is due far ahead keeps every tick busy, so the barrier
    // is re-derived each cycle; in `idle` no load can act, so every
    // tick returns early. A load arriving later must be blocked by
    // the same store, and issue at the same cycle, in both.
    Rig perCycle(basicPolicy(2), 16), idle(basicPolicy(2), 16);
    int keep = perCycle.addLoad(reg::sp, 512);
    perCycle.q.setAddress(keep, stackAddr + 512, 1000, false);

    int issuedAt[2] = {-1, -1};
    Rig *rigs[2] = {&perCycle, &idle};
    for (int k = 0; k < 2; ++k) {
        Rig &r = *rigs[k];
        int resolved = r.addStore();
        int unknown = r.addStore(reg::sp, 32);
        r.q.setAddress(resolved, stackAddr, 5, false);
        for (Cycle now = 0; now < 200; ++now) {
            if (now == 100) // Re-addressed: it blocks again until 300.
                r.q.setAddress(resolved, stackAddr + 16, 300, false);
            if (now == 150)
                r.q.setAddress(unknown, stackAddr + 32, 250, false);
            r.tick(now);
        }
        int ld = r.addLoad(reg::sp, 64);
        r.q.setAddress(ld, stackAddr + 64, 200, false);
        for (Cycle now = 200; now < 400 && issuedAt[k] < 0; ++now)
            for (const LoadCompletion &c : r.tick(now))
                if (c.slot == ld)
                    issuedAt[k] = static_cast<int>(now);
    }
    EXPECT_EQ(issuedAt[0], 300);
    EXPECT_EQ(issuedAt[1], 300);
    EXPECT_EQ(perCycle.q.disambiguationStalls.value(), 100u);
    EXPECT_EQ(idle.q.disambiguationStalls.value(), 100u);
}

// ---- Ring arithmetic on a capacity that is not a power of two.

TEST(MemQueue, PositionsRunOnAcrossTheWrapOfA48EntryQueue)
{
    QueuePolicy p = basicPolicy(2);
    p.combining = 2;
    Rig r(p, 48);
    // Head at slot 27: positions 20 and 21 sit at slots 47 and 0.
    for (int i = 0; i < 27; ++i)
        r.q.release(r.addLoad());
    int slots[22];
    for (int i = 0; i < 22; ++i)
        slots[i] = r.addLoad(reg::sp, 4 * (i % 8));
    ASSERT_EQ(slots[0], 27);
    ASSERT_EQ(slots[20], 47);
    ASSERT_EQ(slots[21], 0);
    // Two same-line pairs of consecutive entries: positions 0 and 1
    // (the head) and positions 20 and 21 (the wrap). Each pair
    // combines into one of the two ports.
    for (int i : {0, 1, 20, 21})
        r.q.setAddress(slots[i], stackAddr + 4 * (i % 8), 1, false);
    auto done = r.tick(1);
    EXPECT_EQ(done.size(), 4u);
    EXPECT_EQ(r.q.combinedAccesses.value(), 2u);
    EXPECT_EQ(r.q.portDenials.value(), 0u);
}
