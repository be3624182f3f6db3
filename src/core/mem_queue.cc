#include "core/mem_queue.hh"

#include <algorithm>
#include <bit>

#include "core/age_bits.hh"
#include "core/fast_forward.hh"
#include "util/log.hh"

namespace ddsim::core {

MemQueue::MemQueue(stats::Group *parent, const std::string &name,
                   int size, mem::Cache *cache, mem::Cache *altCache,
                   const QueuePolicy &policy)
    : stats::Group(parent, name),
      allocated(this, "allocated", "entries allocated"),
      loadsTotal(this, "loads", "loads passed through this queue"),
      storesTotal(this, "stores", "stores passed through this queue"),
      loadsForwarded(this, "loads_forwarded",
                     "loads satisfied by in-queue store forwarding"),
      loadsFastForwarded(this, "loads_fast_forwarded",
                         "loads satisfied by offset-matched fast "
                         "forwarding"),
      loadsFromCache(this, "loads_from_cache",
                     "loads that accessed the cache"),
      combinedAccesses(this, "combined_accesses",
                       "accesses merged into another port grant"),
      portDenials(this, "port_denials",
                  "port requests denied (all ports busy)"),
      bankConflicts(this, "bank_conflicts",
                    "requests denied by a busy bank (banked mode)"),
      disambiguationStalls(this, "disambiguation_stalls",
                           "load-cycles blocked on unknown older "
                           "store addresses"),
      missteeredAccesses(this, "missteered",
                         "accesses steered to the wrong queue"),
      cancelledReplicas(this, "cancelled_replicas",
                        "replicated copies killed at resolution"),
      occupancyHist(this, "occupancy", "queue occupancy distribution",
                    65, 1),
      capacity(size),
      cache(cache),
      altCache(altCache),
      policy(policy),
      entries(static_cast<std::size_t>(size)),
      servedInfo(static_cast<std::size_t>(size)),
      scheduler(policy.ports, policy.combining,
                cache->params().lineBytes, policy.banks)
{
    if (size < 1)
        panic("memory queue needs at least one entry");
    std::size_t words = (static_cast<std::size_t>(size) + 63) / 64;
    actBits.assign(words, 0);
    storeBits.assign(words, 0);
    barrierBits.assign(words, 0);
    storeSpans.resize(static_cast<std::size_t>(size));
}

int
MemQueue::positionOf(int slot) const
{
    int pos = slot - head;
    return pos < 0 ? pos + capacity : pos;
}

int
MemQueue::youngestOlderStore(int slot) const
{
    const QueueEntry &load = entries[static_cast<std::size_t>(slot)];
    if (load.size == 0)
        return -1; // A zero-width access overlaps nothing.
    Addr lo = load.addr;
    Addr hi = load.addr + load.size;
    // Walk the older stores back from the load's slot to the head: the
    // first overlap is the youngest older store.
    int found = -1;
    forEachAgeOrderedYoungestFirst(
        storeBits, head, positionOf(slot), capacity, [&](int store) {
            const StoreSpan &span =
                storeSpans[static_cast<std::size_t>(store)];
            if (span.lo < hi && lo < span.hi) {
                found = store;
                return false;
            }
            return true;
        });
    return found;
}

int
MemQueue::allocate(InstSeq seq, int robIdx, bool isLoad,
                   std::uint8_t accessSize, RegId baseReg,
                   std::int32_t offset, std::uint32_t baseVersion)
{
    if (full())
        panic("MemQueue::allocate on a full queue");

    int slot = tail;
    if (++tail == capacity)
        tail = 0;
    ++count;
    ++allocated;

    // Targeted reset: the cycle, address and match fields are read
    // only behind the flags cleared here.
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    e.valid = true;
    e.seq = seq;
    e.robIdx = robIdx;
    e.isLoad = isLoad;
    e.isStore = !isLoad;
    e.size = accessSize;
    e.baseReg = baseReg;
    e.offset = offset;
    e.baseVersion = baseVersion;
    e.addrKnown = false;
    e.dataReady = false;
    e.issued = false;
    e.completed = false;
    e.committed = false;
    e.missteered = false;
    e.cancelled = false;
    e.fastFwdSlot = -1;
    e.olderStoreEpoch = 0;
    servedInfo[static_cast<std::size_t>(slot)] = ServedInfo{};

    if (isLoad) {
        ++loadsTotal;
        if (policy.fastForward) {
            // Candidates: resident, non-cancelled stores, youngest
            // first (the original scan walked all older slots but
            // skipped the others, so the result is identical).
            auto olderStores = [this](auto &&visit) {
                forEachAgeOrderedYoungestFirst(storeBits, head, count,
                                               capacity, visit);
            };
            int match = findFastForwardStore(entries, olderStores, e);
            if (match >= 0) {
                e.fastFwdSlot = match;
                e.fastFwdSeq =
                    entries[static_cast<std::size_t>(match)].seq;
                setAgeBit(actBits, slot);
            }
        }
    } else {
        ++storesTotal;
        storeSpans[static_cast<std::size_t>(slot)] = StoreSpan{};
        setAgeBit(storeBits, slot);
        setAgeBit(barrierBits, slot);
    }
    return slot;
}

void
MemQueue::setAddress(int slot, Addr addr, Cycle when, bool missteered)
{
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    if (!e.valid)
        panic("setAddress on an invalid queue slot");
    if (e.isStore && e.addrKnown)
        bumpStoreEpoch(); // Re-addressing moves the store's bytes.
    e.olderStoreEpoch = 0; // A load's own address keys its search.
    e.addr = addr;
    e.addrKnown = true;
    e.addrKnownAt = when;
    if (missteered) {
        e.missteered = true;
        ++missteeredAccesses;
    }
    if (e.isStore && !e.cancelled) {
        if (e.size != 0)
            storeSpans[static_cast<std::size_t>(slot)] = {addr,
                                                           addr + e.size};
        // A new address blocks younger loads until it arrives.
        setAgeBit(barrierBits, slot);
    }
    if (e.isLoad && !e.cancelled && !e.issued && !e.completed)
        setAgeBit(actBits, slot);
}

void
MemQueue::setStoreData(int slot, Cycle readyAt)
{
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    if (!e.valid || !e.isStore)
        panic("setStoreData on a non-store queue slot");
    e.dataReady = true;
    e.dataReadyAt = readyAt;
}

void
MemQueue::cancel(int slot)
{
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    if (!e.valid)
        panic("cancel of an invalid queue slot");
    if (e.cancelled)
        return;
    e.cancelled = true;
    ++cancelledReplicas;
    clearAgeBit(actBits, slot);
    clearAgeBit(storeBits, slot);
    clearAgeBit(barrierBits, slot);
    if (e.isStore && e.addrKnown)
        bumpStoreEpoch();
}

bool
MemQueue::tryCacheAccess(QueueEntry &e, int slot, int pos, Cycle now)
{
    auto grant = scheduler.request(e.addr, AccessKind::Load, pos);
    if (!grant.granted) {
        ++portDenials;
        if (grant.bankConflict)
            ++bankConflicts;
        return false;
    }

    Cycle done;
    if (grant.combined) {
        // Ride the leader's wide access: same line, same completion.
        ++combinedAccesses;
        done = scheduler.groupCompletion(grant.groupId);
    } else {
        mem::Cache *target = e.missteered && altCache ? altCache : cache;
        Cycle start = e.missteered ? now + policy.mispredictPenalty : now;
        done = target->access(e.addr, false, start);
        scheduler.setGroupCompletion(grant.groupId, done);
    }
    ++loadsFromCache;
    e.issued = true;
    e.completed = true;
    e.completeAt = done;
    servedInfo[static_cast<std::size_t>(slot)] = {
        ServedInfo::kCache, grant.combined, now};
    return true;
}

bool
MemQueue::processLoad(QueueEntry &e, int slot, Cycle now,
                      InstSeq barrierSeq,
                      std::vector<LoadCompletion> &completions)
{
    // --- Fast data forwarding: may complete before addresses. ---
    if (e.fastFwdSlot >= 0) {
        QueueEntry &s =
            entries[static_cast<std::size_t>(e.fastFwdSlot)];
        if (s.valid && s.seq == e.fastFwdSeq && !s.cancelled) {
            if (s.dataReady && s.dataReadyAt <= now) {
                e.issued = true;
                e.completed = true;
                e.completeAt = now + policy.forwardLatency;
                servedInfo[static_cast<std::size_t>(slot)] = {
                    ServedInfo::kFastForward, false, now};
                ++loadsFastForwarded;
                completions.push_back({slot, e.robIdx, e.completeAt});
                return true;
            }
            // Else: wait for the store's data; either way this load
            // never consults the cache.
            return false;
        }
        // The matched store left the queue (committed); its value is
        // in the cache now -- fall through to the normal path.
        e.fastFwdSlot = -1;
    }

    // --- Normal path: needs this load's address. ---
    if (!e.addrKnown || e.addrKnownAt > now)
        return false;

    if (e.seq > barrierSeq) {
        ++disambiguationStalls;
        return false;
    }

    // All older store addresses are known: the youngest overlapping
    // store decides (committed or gone -> read the cache; covering ->
    // forward in-queue; partial overlap -> wait for its commit). The
    // answer holds until a store is cancelled or re-addressed.
    int pos = positionOf(slot);
    if (e.olderStoreEpoch != storeEpoch) {
        e.olderStoreSlot = youngestOlderStore(slot);
        if (e.olderStoreSlot >= 0)
            e.olderStoreSeq =
                entries[static_cast<std::size_t>(e.olderStoreSlot)].seq;
        e.olderStoreEpoch = storeEpoch;
    }
    if (e.olderStoreSlot >= 0) {
        QueueEntry &st =
            entries[static_cast<std::size_t>(e.olderStoreSlot)];
        if (st.valid && st.seq == e.olderStoreSeq && !st.committed) {
            if (!e.coveredBy(st))
                return false; // Partial overlap: wait for the commit.
            if (!(st.dataReady && st.dataReadyAt <= now))
                return false; // Wait for the store's data.
            // As in sim-outorder, a load satisfied by in-queue
            // forwarding still issues through a cache port; only the
            // latency is the 1-cycle forward. (Fast data forwarding
            // above is what bypasses the port.)
            auto grant =
                scheduler.request(e.addr, AccessKind::Forward, pos);
            if (!grant.granted) {
                ++portDenials;
                if (grant.bankConflict)
                    ++bankConflicts;
                return false;
            }
            e.issued = true;
            e.completed = true;
            e.completeAt = now + policy.forwardLatency;
            servedInfo[static_cast<std::size_t>(slot)] = {
                ServedInfo::kForward, grant.combined, now};
            if (grant.combined)
                ++combinedAccesses;
            else
                scheduler.setGroupCompletion(grant.groupId,
                                             e.completeAt);
            ++loadsForwarded;
            completions.push_back({slot, e.robIdx, e.completeAt});
            return true;
        }
        // Committed: the value is already in the cache.
    }

    // Cache access, subject to port availability.
    if (tryCacheAccess(e, slot, pos, now)) {
        completions.push_back({slot, e.robIdx, e.completeAt});
        return true;
    }
    return false;
}

void
MemQueue::tick(Cycle now, std::vector<LoadCompletion> &completions)
{
    scheduler.newCycle(now);
    if (now >= lastSampled + 64) {
        occupancyHist.sample(static_cast<std::uint64_t>(count));
        lastSampled = now;
    }
    // No load can act: nothing below would issue, forward or stall.
    if (std::none_of(actBits.begin(), actBits.end(),
                     [](std::uint64_t w) { return w != 0; }))
        return;

    // The disambiguation barrier: the oldest tracked store whose
    // address is unknown as of this cycle; exactly the loads younger
    // than it are blocked. Stores found resolved leave the bitmap (an
    // address, once arrived, changes only through setAddress, which
    // puts the store back), so each store is passed over once.
    InstSeq barrierSeq = ~InstSeq{0};
    forEachAgeOrdered(barrierBits, head, count, capacity, [&](int slot) {
        const QueueEntry &st = entries[static_cast<std::size_t>(slot)];
        if (st.addrKnown && st.addrKnownAt <= now) {
            clearAgeBit(barrierBits, slot);
            return true;
        }
        barrierSeq = st.seq;
        return false;
    });

    // Visit the loads that can act oldest-first, preserving the port
    // request order of the original walk over every resident load.
    forEachAgeOrdered(actBits, head, count, capacity, [&](int slot) {
        QueueEntry &e = entries[static_cast<std::size_t>(slot)];
        if (processLoad(e, slot, now, barrierSeq, completions) ||
            (!e.addrKnown && e.fastFwdSlot < 0))
            clearAgeBit(actBits, slot);
        return true;
    });
}

bool
MemQueue::commitStore(int slot, Cycle now)
{
    scheduler.newCycle(now);
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    if (!e.valid || !e.isStore)
        panic("commitStore on a non-store queue slot");
    if (e.committed || e.cancelled)
        return true;

    auto grant =
        scheduler.request(e.addr, AccessKind::Store, positionOf(slot));
    if (!grant.granted) {
        ++portDenials;
        if (grant.bankConflict)
            ++bankConflicts;
        return false;
    }
    if (grant.combined) {
        ++combinedAccesses;
    } else {
        mem::Cache *target = e.missteered && altCache ? altCache : cache;
        Cycle start = e.missteered ? now + policy.mispredictPenalty : now;
        Cycle done = target->access(e.addr, true, start);
        scheduler.setGroupCompletion(grant.groupId, done);
    }
    e.committed = true;
    servedInfo[static_cast<std::size_t>(slot)] = {ServedInfo::kCache,
                                                  grant.combined, now};
    return true;
}

void
MemQueue::release(int slot)
{
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    if (!e.valid)
        panic("release of an invalid queue slot");
    if (slot != head)
        panic("queue entries must be released oldest-first "
              "(slot %d, head %d)", slot, head);
    clearAgeBit(actBits, slot);
    clearAgeBit(storeBits, slot);
    clearAgeBit(barrierBits, slot);
    e.valid = false;
    if (++head == capacity)
        head = 0;
    --count;
}

int
MemQueue::barrierStores() const
{
    int n = 0;
    for (std::uint64_t w : barrierBits)
        n += std::popcount(w);
    return n;
}

double
MemQueue::queueSatisfiedFrac() const
{
    double fwd =
        loadsForwarded.report() + loadsFastForwarded.report();
    return stats::safeRatio(fwd, loadsTotal.report());
}

} // namespace ddsim::core
