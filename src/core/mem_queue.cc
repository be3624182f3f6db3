#include "core/mem_queue.hh"

#include <algorithm>

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
    actBits.assign((static_cast<std::size_t>(size) + 63) / 64, 0);
    ffScratch.reserve(static_cast<std::size_t>(size));
}

int
MemQueue::positionOf(int slot) const
{
    return (slot - head + capacity) % capacity;
}

void
MemQueue::indexStore(const QueueEntry &e, int slot)
{
    if (e.size == 0)
        return; // A zero-width access overlaps nothing.
    Addr lo = e.addr >> kChunkShift;
    Addr hi = (e.addr + e.size - 1) >> kChunkShift;
    for (Addr c = lo;; ++c) {
        chunkStores[c].push_back(slot);
        if (c == hi)
            break;
    }
}

void
MemQueue::unindexStore(const QueueEntry &e, int slot)
{
    if (!e.addrKnown || e.size == 0)
        return;
    Addr lo = e.addr >> kChunkShift;
    Addr hi = (e.addr + e.size - 1) >> kChunkShift;
    for (Addr c = lo;; ++c) {
        auto it = chunkStores.find(c);
        if (it != chunkStores.end()) {
            auto &v = it->second;
            auto pos = std::find(v.begin(), v.end(), slot);
            if (pos != v.end()) {
                *pos = v.back(); // Order-free: lookups pick by seq.
                v.pop_back();
            }
            // The node and the vector's capacity are kept: the next
            // store to this chunk reuses them instead of paying a
            // map-node plus vector allocation (this pair was the
            // hottest malloc/free site in the whole simulator).
        }
        if (c == hi)
            break;
    }
}

int
MemQueue::youngestOlderStore(const QueueEntry &load) const
{
    if (load.size == 0)
        return -1;
    int best = -1;
    InstSeq bestSeq = 0;
    Addr lo = load.addr >> kChunkShift;
    Addr hi = (load.addr + load.size - 1) >> kChunkShift;
    for (Addr c = lo;; ++c) {
        auto it = chunkStores.find(c);
        if (it != chunkStores.end()) {
            for (int slot : it->second) {
                const QueueEntry &st =
                    entries[static_cast<std::size_t>(slot)];
                if (st.seq >= load.seq || !st.overlaps(load))
                    continue;
                if (best < 0 || st.seq > bestSeq) {
                    best = slot;
                    bestSeq = st.seq;
                }
            }
        }
        if (c == hi)
            break;
    }
    return best;
}

int
MemQueue::allocate(InstSeq seq, int robIdx, bool isLoad,
                   std::uint8_t accessSize, RegId baseReg,
                   std::int32_t offset, std::uint32_t baseVersion)
{
    if (full())
        panic("MemQueue::allocate on a full queue");

    int slot = tail;
    tail = (tail + 1) % capacity;
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
            // Candidates: resident stores only, youngest first (the
            // original scan walked all older slots but skipped
            // non-stores, so the result is identical).
            ffScratch.clear();
            for (auto it = storesByAge.rbegin();
                 it != storesByAge.rend(); ++it)
                ffScratch.push_back(it->first);
            int match = findFastForwardStore(entries, ffScratch, e);
            if (match >= 0) {
                e.fastFwdSlot = match;
                e.fastFwdSeq =
                    entries[static_cast<std::size_t>(match)].seq;
                setAct(slot);
            }
        }
    } else {
        ++storesTotal;
        noAddrStores.emplace_back(slot, seq);
        storesByAge.emplace_back(slot, seq);
    }
    return slot;
}

void
MemQueue::setAddress(int slot, Addr addr, Cycle when, bool missteered)
{
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    if (!e.valid)
        panic("setAddress on an invalid queue slot");
    if (e.isStore && e.addrKnown) {
        unindexStore(e, slot); // Re-addressing: replace the old entry.
        bumpStoreEpoch();
    }
    e.olderStoreEpoch = 0; // A load's own address keys its search.
    e.addr = addr;
    e.addrKnown = true;
    e.addrKnownAt = when;
    if (missteered) {
        e.missteered = true;
        ++missteeredAccesses;
    }
    if (e.isStore && !e.cancelled)
        indexStore(e, slot);
    if (e.isLoad && !e.cancelled && !e.issued && !e.completed)
        setAct(slot);
    extEvent = std::min(extEvent, when);
}

void
MemQueue::setStoreData(int slot, Cycle readyAt)
{
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    if (!e.valid || !e.isStore)
        panic("setStoreData on a non-store queue slot");
    e.dataReady = true;
    e.dataReadyAt = readyAt;
    extEvent = std::min(extEvent, readyAt);
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
    clearAct(slot);
    if (e.isStore && e.addrKnown) {
        unindexStore(e, slot);
        bumpStoreEpoch();
    }
    extEvent = 0; // Barrier and fast-forward waiters re-evaluate.
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
                      InstSeq barrierSeq, Cycle barrierEvent,
                      std::vector<LoadCompletion> &completions,
                      TickInfo &info)
{
    auto wantEvent = [&info](Cycle c) {
        info.nextEvent = std::min(info.nextEvent, c);
    };

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
            if (s.dataReady)
                wantEvent(s.dataReadyAt);
            return false;
        }
        // The matched store left the queue (committed); its value is
        // in the cache now -- fall through to the normal path.
        e.fastFwdSlot = -1;
    }

    // --- Normal path: needs this load's address. ---
    if (!e.addrKnown)
        return false;
    if (e.addrKnownAt > now) {
        wantEvent(e.addrKnownAt);
        return false;
    }

    if (e.seq > barrierSeq) {
        ++disambiguationStalls;
        ++info.stalledLoads;
        wantEvent(barrierEvent); // kNoEvent while the barrier store's
                                 // address generation has not issued.
        return false;
    }

    // All older store addresses are known: the youngest overlapping
    // store decides (committed or gone -> read the cache; covering ->
    // forward in-queue; partial overlap -> wait for its commit). The
    // answer holds until a store is cancelled or re-addressed.
    int pos = positionOf(slot);
    if (e.olderStoreEpoch != storeEpoch) {
        e.olderStoreSlot = youngestOlderStore(e);
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
            if (!(st.dataReady && st.dataReadyAt <= now)) {
                if (st.dataReady)
                    wantEvent(st.dataReadyAt);
                return false; // Wait for the store's data.
            }
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
                wantEvent(now + 1); // Ports reset next cycle.
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
    wantEvent(now + 1); // Ports reset next cycle.
    return false;
}

void
MemQueue::tick(Cycle now, std::vector<LoadCompletion> &completions,
               TickInfo *infoOut)
{
    scheduler.newCycle(now);
    if (now >= lastSampled + 64) {
        occupancyHist.sample(static_cast<std::uint64_t>(count));
        lastSampled = now;
    }

    // Advance the disambiguation barrier: drop released, cancelled
    // and address-resolved stores from the front. An address, once
    // known, never becomes unknown again, so popping is final. The
    // surviving front is the oldest store whose address is unknown as
    // of this cycle; exactly the loads younger than it are blocked —
    // the same set the original progressive walk blocked.
    while (!noAddrStores.empty()) {
        auto [slot, seq] = noAddrStores.front();
        const QueueEntry &st = entries[static_cast<std::size_t>(slot)];
        if (st.valid && st.seq == seq && !st.cancelled &&
            (!st.addrKnown || st.addrKnownAt > now))
            break;
        noAddrStores.pop_front();
    }
    InstSeq barrierSeq = ~InstSeq{0};
    Cycle barrierEvent = kNoEvent;
    if (!noAddrStores.empty()) {
        auto [slot, seq] = noAddrStores.front();
        const QueueEntry &st = entries[static_cast<std::size_t>(slot)];
        barrierSeq = seq;
        if (st.addrKnown) // In flight: resolves at a known cycle.
            barrierEvent = st.addrKnownAt;
    }

    // Visit the loads that can act oldest-first, preserving the port
    // request order of the original walk over every resident load.
    TickInfo info;
    forEachAgeOrdered(actBits, head, count, capacity, [&](int slot) {
        QueueEntry &e = entries[static_cast<std::size_t>(slot)];
        if (processLoad(e, slot, now, barrierSeq, barrierEvent,
                        completions, info) ||
            (!e.addrKnown && e.fastFwdSlot < 0))
            clearAct(slot);
        return true;
    });
    if (infoOut)
        *infoOut = info;
}

void
MemQueue::skipTo(Cycle from, Cycle to, std::uint64_t stalledLoads)
{
    if (to <= from)
        return;
    // The per-cycle model ticked every cycle in (from, to]: each tick
    // re-charged the same disambiguation stalls (nothing changes in a
    // quiescent window) and re-sampled occupancy once 64 cycles had
    // passed since the last sample. Occupancy is constant across the
    // window, so the catch-up samples all record the current count.
    disambiguationStalls += stalledLoads * (to - from);
    while (to >= lastSampled + 64) {
        occupancyHist.sample(static_cast<std::uint64_t>(count));
        lastSampled += 64;
    }
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
    extEvent = std::min(extEvent, now + 1); // Unblocks partial waits.
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
    if (e.isStore) {
        if (!e.cancelled)
            unindexStore(e, slot);
        // Releases run oldest-first, so this store is the front.
        if (!storesByAge.empty() && storesByAge.front().first == slot)
            storesByAge.pop_front();
    }
    clearAct(slot);
    e.valid = false;
    head = (head + 1) % capacity;
    --count;
}

double
MemQueue::queueSatisfiedFrac() const
{
    double fwd =
        loadsForwarded.report() + loadsFastForwarded.report();
    return stats::safeRatio(fwd, loadsTotal.report());
}

} // namespace ddsim::core
