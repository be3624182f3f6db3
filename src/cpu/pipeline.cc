#include "cpu/pipeline.hh"

#include <algorithm>
#include <ostream>

#include "core/age_bits.hh"
#include "isa/disasm.hh"
#include "obs/pipeline_trace.hh"
#include "obs/sampler.hh"
#include "util/log.hh"

namespace ddsim::cpu {

using core::QueuePolicy;
using core::Stream;

Pipeline::Pipeline(stats::Group *parent,
                   const config::MachineConfig &cfg,
                   vm::InstSource &src)
    : stats::Group(parent, "cpu"),
      numCycles(this, "cycles", "simulated cycles"),
      committedInsts(this, "committed", "instructions committed"),
      fetchedInsts(this, "fetched", "instructions fetched"),
      issuedOps(this, "issued", "operations issued to FUs"),
      agIssues(this, "agen_issues", "address generations issued"),
      robFullStalls(this, "rob_full_stalls",
                    "dispatch halts due to a full ROB"),
      lsqFullStalls(this, "lsq_full_stalls",
                    "dispatch halts due to a full LSQ"),
      lvaqFullStalls(this, "lvaq_full_stalls",
                     "dispatch halts due to a full LVAQ"),
      commitPortStalls(this, "commit_port_stalls",
                       "store commits blocked on cache ports"),
      robOccupancy(this, "rob_occupancy",
                   "sampled reorder buffer occupancy", 33, 4),
      ipcStat(this, "ipc", "committed instructions per cycle",
              [this] { return ipc(); }),
      cfg(cfg),
      executor(src),
      fuPool(cfg),
      rob(cfg.robSize),
      readyEvents(cfg.robSize),
      storeDataEvents(cfg.robSize)
{
    cfg.validate();
    memHier = std::make_unique<mem::Hierarchy>(this, cfg);
    memClassifier =
        std::make_unique<core::Classifier>(this, cfg.classifier);
    stream = std::make_unique<vm::StreamStats>(this);

    QueuePolicy lsqPolicy;
    lsqPolicy.ports = cfg.l1.ports;
    lsqPolicy.combining = 1;      // Combining is an LVAQ optimization.
    lsqPolicy.banks = cfg.l1.banks;
    lsqPolicy.fastForward = false;
    lsqPolicy.forwardLatency = cfg.forwardLatency;
    lsqPolicy.mispredictPenalty = cfg.mispredictPenalty;
    lsqQueue = std::make_unique<core::MemQueue>(
        this, "lsq", cfg.lsqSize, &memHier->l1(), memHier->lvc(),
        lsqPolicy);

    if (cfg.lvcEnabled) {
        QueuePolicy lvaqPolicy;
        lvaqPolicy.ports = cfg.lvc.ports;
        lvaqPolicy.combining = cfg.combining;
        lvaqPolicy.banks = cfg.lvc.banks;
        lvaqPolicy.fastForward = cfg.fastForward;
        lvaqPolicy.forwardLatency = cfg.forwardLatency;
        lvaqPolicy.mispredictPenalty = cfg.mispredictPenalty;
        lvaqQueue = std::make_unique<core::MemQueue>(
            this, "lvaq", cfg.lvaqSize, memHier->lvc(), &memHier->l1(),
            lvaqPolicy);
    }

    fetchQueueCap = static_cast<std::size_t>(cfg.fetchWidth) * 2;
    fetchQueue.init(static_cast<std::size_t>(cfg.robSize) + fetchQueueCap,
                    static_cast<std::size_t>(cfg.fetchWidth));
    issuableBits.assign(
        (static_cast<std::size_t>(cfg.robSize) + 63) / 64, 0);
    completions.reserve(static_cast<std::size_t>(cfg.lsqSize) +
                        static_cast<std::size_t>(cfg.lvaqSize));
    sourceHalted = executor.halted();
}

core::MemQueue &
Pipeline::queueOf(QueueKind kind)
{
    if (kind == QueueKind::Lvaq) {
        if (!lvaqQueue)
            panic("LVAQ access on a machine without one");
        return *lvaqQueue;
    }
    return *lsqQueue;
}

bool
Pipeline::srcReady(const ProducerTag &tag) const
{
    if (!tag.valid())
        return true; // Value lives in the register file.
    const RobEntry &p = rob[tag.robIdx];
    if (!p.valid || p.seq != tag.seq)
        return true; // Producer already committed.
    return p.completed && p.readyAt <= curCycle;
}

// ---- Commit ---------------------------------------------------------------

void
Pipeline::commitStage()
{
    int n = 0;
    while (n < cfg.commitWidth && !rob.empty()) {
        int idx = rob.headIdx();
        RobEntry &e = rob[idx];

        if (e.isMem()) {
            core::MemQueue &q = e.replicated && e.stackAccess
                                    ? *lvaqQueue
                                    : queueOf(e.queueKind);
            int slot = e.replicated && e.stackAccess ? e.lvaqSlot
                                                     : e.queueSlot;
            if (e.info->store) {
                const core::QueueEntry &qe = q.entry(slot);
                bool ready = qe.addrKnown && qe.addrKnownAt <= curCycle &&
                             qe.dataReady && qe.dataReadyAt <= curCycle;
                if (!ready)
                    break;
                if (!q.commitStore(slot, curCycle)) {
                    ++commitPortStalls;
                    break;
                }
            } else {
                // Load completions are pushed into the ROB entry by
                // the memory stage (from whichever copy finished).
                if (!(e.completed && e.readyAt <= curCycle))
                    break;
            }
            if (tracer)
                recordCommit(e, idx);
            if (e.replicated) {
                lsqQueue->release(e.queueSlot);
                lvaqQueue->release(e.lvaqSlot);
            } else {
                queueOf(e.queueKind).release(e.queueSlot);
            }
        } else {
            if (!(e.completed && e.readyAt <= curCycle))
                break;
            if (tracer)
                recordCommit(e, idx);
        }

        if (e.dest.valid())
            renameTable.clearIfProducer(e.dest, ProducerTag{idx, e.seq});

        if (traceOut)
            traceCommit(e);
        if (!commitRing.empty()) {
            const vm::DynInst &di = instOf(e);
            CommittedRecord &r = commitRing[commitRingHead];
            r.seq = e.seq;
            r.pcIdx = di.pcIdx;
            r.inst = di.inst;
            r.cycle = curCycle;
            commitRingHead = (commitRingHead + 1) % commitRing.size();
            commitRingCount =
                std::min(commitRingCount + 1, commitRing.size());
        }
        rob.releaseHead();
        clearIssuable(idx);
        ++committedInsts;
        ++n;
        lastCommit = curCycle;
    }
    if (sampler && n > 0)
        sampler->onCommit(committedInsts.value(), curCycle);
}

void
Pipeline::recordCommit(const RobEntry &e, int idx)
{
    obs::TraceRecord r;
    r.seq = e.seq;
    r.pcIdx = instOf(e).pcIdx;
    r.dispatchCycle = e.dispatchedAt;
    r.commitCycle = curCycle;
    if (e.isMem()) {
        const isa::OpInfo &info = *e.info;
        r.isLoad = info.load;
        r.isStore = info.store;
        r.replicated = e.replicated;
        // Queue slots are allocated in the dispatch stage.
        r.queueCycle = e.dispatchedAt;

        // Find the copy that actually serviced the access. Under
        // Replicate steering the address resolution cancels the wrong
        // copy: stores keep the stackAccess-selected one, loads keep
        // whichever completed (the LVAQ copy can also win early via
        // fast forwarding; the LSQ copy is cancelled either way).
        bool useLvaq;
        int slot;
        if (e.replicated) {
            if (info.store) {
                useLvaq = e.stackAccess;
            } else {
                const core::QueueEntry &lq =
                    lvaqQueue->entry(e.lvaqSlot);
                useLvaq = lq.completed && !lq.cancelled;
            }
            slot = useLvaq ? e.lvaqSlot : e.queueSlot;
        } else {
            useLvaq = e.queueKind == QueueKind::Lvaq;
            slot = e.queueSlot;
        }
        const core::MemQueue &q = useLvaq ? *lvaqQueue : *lsqQueue;
        const core::ServedInfo &sv = q.served(slot);
        r.lvaqStream = useLvaq;
        r.forwarded = sv.kind == core::ServedInfo::kForward;
        r.fastForwarded = sv.kind == core::ServedInfo::kFastForward;
        r.combined = sv.combinedGrant;
        r.missteered = q.entry(slot).missteered;
        if (sv.kind != core::ServedInfo::kNone)
            r.accessCycle = sv.at;
        if (info.load)
            r.wbCycle = e.readyAt;
    } else {
        r.wbCycle = e.readyAt;
    }
    tracer->onCommit(idx, r);
}

void
Pipeline::traceCommit(const RobEntry &e)
{
    const vm::DynInst &di = instOf(e);
    std::string where;
    if (e.isMem()) {
        if (e.replicated)
            where = " [both]";
        else if (e.queueKind == QueueKind::Lvaq)
            where = " [lvaq]";
        else
            where = " [lsq]";
        if (di.isMem())
            where += format(" @0x%08x", di.effAddr);
    }
    *traceOut << format(
        "%8llu  pc=%06u  D%-8llu R%-8llu C%-8llu  %s%s\n",
        (unsigned long long)e.seq, di.pcIdx,
        (unsigned long long)e.dispatchedAt,
        (unsigned long long)e.readyAt, (unsigned long long)curCycle,
        isa::disassemble(di.inst).c_str(), where.c_str());
}

// ---- Memory ----------------------------------------------------------------

void
Pipeline::memoryStage()
{
    completions.clear();
    lsqQueue->tick(curCycle, completions);
    if (lvaqQueue)
        lvaqQueue->tick(curCycle, completions);
    for (const core::LoadCompletion &c : completions) {
        RobEntry &e = rob[c.robIdx];
        if (!e.valid)
            panic("load completion for an invalid ROB entry");
        // Under Replicate steering both copies could in principle
        // report; the first one wins.
        if (e.completed)
            continue;
        e.completed = true;
        e.readyAt = c.readyAt;
        onProducerComplete(c.robIdx, /*inIssueStage=*/false);
        // A load completed by fast forwarding before its address
        // generation ran is the issue scan's fast-path case (mark
        // addrIssued, kill the LSQ replica): make sure the scan
        // visits it from this cycle on.
        if (!e.addrIssued)
            markIssuable(c.robIdx);
    }
}

// ---- Issue ------------------------------------------------------------------

void
Pipeline::pushStoreData(RobEntry &e)
{
    // src[1] is the store's data operand (srcRegs() order); an invalid
    // tag means the value already lives in the register file. The
    // *time* the data becomes available is pushed to the queue as
    // soon as the producer's completion time is known (the wakeup
    // broadcast), so a load polling the queue in the same cycle the
    // data arrives can still forward -- otherwise the store could
    // commit and leave the queue one cycle before the load sees it.
    ProducerTag data;
    if (e.numSrc > 1)
        data = e.src[1];

    Cycle at;
    if (!data.valid()) {
        at = e.dispatchedAt; // value already in the register file
    } else {
        const RobEntry &p = rob[data.robIdx];
        if (!p.valid || p.seq != data.seq)
            at = curCycle; // producer already committed
        else if (p.completed)
            at = p.readyAt; // may still be in the future
        else
            return; // completion time not known yet
    }
    queueOf(e.queueKind).setStoreData(e.queueSlot, at);
    if (e.replicated)
        lvaqQueue->setStoreData(e.lvaqSlot, at);
    e.storeDataSent = true;
}

void
Pipeline::registerConsumers(int idx)
{
    RobEntry &e = rob[idx];
    // The dispatch cycle's issue stage has already run: the seed's
    // window walk first reached a new entry one cycle after dispatch.
    e.eligibleAt = e.dispatchedAt + 1;

    // Issue eligibility tracks every source of an ALU operation but
    // only the base register (src[0]) of a memory operation; a
    // store's data operand (src[1]) instead drives the store-data
    // push, on its own schedule.
    bool isStore = e.isMem() && e.info->store;
    bool dataEdgeRegistered = false;
    for (int s = 0; s < e.numSrc; ++s) {
        bool issueEdge = !e.isMem() || s == 0;
        bool dataEdge = isStore && s == 1;
        if (!issueEdge && !dataEdge)
            continue;
        const ProducerTag &tag = e.src[s];
        if (!tag.valid())
            continue; // Value lives in the register file.
        RobEntry &p = rob[tag.robIdx];
        if (!p.valid || p.seq != tag.seq)
            continue; // Producer already committed.
        if (p.completed) {
            if (issueEdge)
                e.eligibleAt = std::max(e.eligibleAt, p.readyAt);
            continue; // Completion time already known.
        }
        e.consNext[s] = p.consHead;
        p.consHead = idx * 2 + s;
        if (issueEdge)
            ++e.waitCount;
        if (dataEdge)
            dataEdgeRegistered = true;
    }
    if (e.waitCount == 0)
        pushReady(e.eligibleAt, idx, e.seq);
    if (isStore && !dataEdgeRegistered)
        // The data operand's timing is already decided: run the
        // seed's push logic at the first post-dispatch issue stage.
        storeDataEvents.push(e.dispatchedAt + 1, idx, e.seq);
}

void
Pipeline::onProducerComplete(int pIdx, bool inIssueStage)
{
    RobEntry &p = rob[pIdx];
    int node = p.consHead;
    p.consHead = -1;
    while (node >= 0) {
        int cIdx = node >> 1;
        int slot = node & 1;
        RobEntry &c = rob[cIdx];
        node = c.consNext[slot];
        c.consNext[slot] = -1;
        if (slot == 1 && c.isMem()) {
            // Store-data edge. The seed pushed during the issue
            // stage's walk: from within it, push right away (nothing
            // between here and the walk position reads the queue's
            // data-ready state intra-cycle); from the memory stage,
            // defer to this cycle's issue stage so the commit stage
            // keeps seeing the un-pushed state it saw in the seed.
            if (c.storeDataSent)
                continue;
            if (inIssueStage)
                pushStoreData(c);
            else
                storeDataEvents.push(curCycle, cIdx, c.seq);
        } else {
            c.eligibleAt = std::max(c.eligibleAt, p.readyAt);
            if (--c.waitCount == 0)
                pushReady(c.eligibleAt, cIdx, c.seq);
        }
    }
}

bool
Pipeline::visitIssuable(int idx, int &issued)
{
    RobEntry &e = rob[idx];
    if (!e.valid) {
        clearIssuable(idx);
        return true;
    }
    if (issued >= cfg.issueWidth)
        return false; // Width spent; retry the kept bits next cycle.

    if (e.isMem()) {
        if (e.addrIssued) {
            clearIssuable(idx);
            return true;
        }
        // Fast-forwarded load: the value arrived through the LVAQ's
        // offset match; no address generation needed.
        const core::QueueEntry &fastQe =
            e.replicated ? lvaqQueue->entry(e.lvaqSlot)
                         : queueOf(e.queueKind).entry(e.queueSlot);
        if (fastQe.completed && !fastQe.cancelled) {
            e.addrIssued = true;
            if (e.replicated)
                lsqQueue->cancel(e.queueSlot);
            clearIssuable(idx);
            return true;
        }
        if (!srcReady(e.src[0]))
            return true; // Base register not ready.
        if (!fuPool.tryIssue(isa::FuClass::IntAlu, curCycle, 1, true))
            return true; // AGU busy: keep the bit, retry next cycle.
        e.addrIssued = true;
        clearIssuable(idx);
        ++issued;
        ++agIssues;
        if (tracer)
            tracer->onIssue(idx, curCycle);

        if (e.replicated) {
            // Replicated steering (paper footnote 3): the address
            // resolution picks the surviving copy and kills the
            // other -- no misprediction is possible.
            if (e.stackAccess) {
                lvaqQueue->setAddress(e.lvaqSlot, e.effAddr,
                                      curCycle + 1, false);
                lsqQueue->cancel(e.queueSlot);
            } else {
                lsqQueue->setAddress(e.queueSlot, e.effAddr,
                                     curCycle + 1, false);
                lvaqQueue->cancel(e.lvaqSlot);
            }
            return true;
        }

        bool missteered = false;
        if (lvaqQueue &&
            cfg.classifier != config::ClassifierKind::None) {
            Stream chosen = e.queueKind == QueueKind::Lvaq
                                ? Stream::Lvaq
                                : Stream::Lsq;
            missteered = !memClassifier->verify(instOf(e), chosen);
        }
        queueOf(e.queueKind)
            .setAddress(e.queueSlot, e.effAddr, curCycle + 1,
                        missteered);
    } else {
        if (e.completed) {
            clearIssuable(idx);
            return true;
        }
        // Every source is ready: a non-memory entry joins the scan set
        // only through its ready event (see issueStage).
        const isa::OpInfo &info = *e.info;
        if (!fuPool.tryIssue(info.fu, curCycle, info.latency,
                             info.pipelined))
            return true; // FU busy: keep the bit, retry next cycle.
        e.completed = true;
        e.readyAt = curCycle + info.latency;
        clearIssuable(idx);
        ++issued;
        ++issuedOps;
        if (tracer)
            tracer->onIssue(idx, curCycle);
        // The completion time is now known: wake consumers. Their
        // earliest eligibility is readyAt > curCycle, so no bit set
        // this scan changes behind the cursor.
        onProducerComplete(idx, /*inIssueStage=*/true);
    }
    return true;
}

void
Pipeline::issueStage()
{
    // Store-data pushes land first, exactly where the seed's window
    // walk performed them (never earlier in the cycle: the memory and
    // commit stages of this cycle already ran against the un-pushed
    // state).
    storeDataEvents.drainUpTo(curCycle, [this](int idx, InstSeq seq) {
        RobEntry &e = rob[idx];
        if (e.valid && e.seq == seq && !e.storeDataSent)
            pushStoreData(e);
    });

    // Entries whose issue-relevant sources are all ready (as of this
    // cycle) join the scan set; they stay in it until they act. A ready
    // event fires at eligibleAt, which is at or after every issue-edge
    // producer's readyAt, and a completed producer's readyAt never
    // changes: so a non-memory entry in the set has every source ready
    // and visitIssuable does not test them again. (The memory stage
    // also adds loads completed by fast forwarding; the memory path
    // keeps its base-register test.)
    readyEvents.drainUpTo(curCycle, [this](int idx, InstSeq seq) {
        const RobEntry &e = rob[idx];
        if (e.valid && e.seq == seq)
            markIssuable(idx);
    });

    // Age-ordered walk over the issuable bits only. Per-entry
    // behaviour (fast path, source checks, FU arbitration, counters)
    // is the seed's walk body verbatim; the bitmap merely skips the
    // entries for which that body would provably do nothing.
    int issued = 0;
    core::forEachAgeOrdered(
        issuableBits, rob.headIdx(), rob.occupancy(), rob.size(),
        [&](int idx) { return visitIssuable(idx, issued); });
}

// ---- Dispatch ---------------------------------------------------------------

void
Pipeline::dispatchStage()
{
    int n = 0;
    while (n < cfg.issueWidth && !fetchQueue.empty()) {
        const vm::DynInst &di = fetchQueue.front();

        if (rob.full()) {
            ++robFullStalls;
            break;
        }

        const StaticOp &sd = decoded(di);
        bool replicate =
            lvaqQueue &&
            cfg.classifier == config::ClassifierKind::Replicate;
        QueueKind kind = QueueKind::None;
        if (sd.mem) {
            if (replicate) {
                // Footnote 3: a copy goes into each queue, so both
                // must have room.
                kind = QueueKind::Lsq;
                if (lsqQueue->full()) {
                    ++lsqFullStalls;
                    break;
                }
                if (lvaqQueue->full()) {
                    ++lvaqFullStalls;
                    break;
                }
            } else {
                Stream s = Stream::Lsq;
                if (lvaqQueue)
                    s = memClassifier->classify(di);
                kind = s == Stream::Lvaq ? QueueKind::Lvaq
                                         : QueueKind::Lsq;
                core::MemQueue &q = queueOf(kind);
                if (q.full()) {
                    if (kind == QueueKind::Lvaq)
                        ++lvaqFullStalls;
                    else
                        ++lsqFullStalls;
                    break;
                }
            }
        }

        int idx = rob.allocate();
        RobEntry &e = rob[idx];
        e.seq = di.seq;
        e.info = sd.info;
        e.effAddr = di.effAddr;
        e.instSlot = fetchQueue.frontSlot();
        e.dest = sd.dest;
        e.stackAccess = di.stackAccess;
        e.dispatchedAt = curCycle;
        e.queueKind = kind;

        e.numSrc = sd.numSrc;
        for (int s = 0; s < e.numSrc; ++s)
            e.src[s] = renameTable.producer(sd.srcs[s]);

        if (kind != QueueKind::None) {
            e.queueSlot = queueOf(kind).allocate(
                di.seq, idx, sd.info->load, di.accessSize, di.inst.rs,
                di.inst.imm, di.baseVersion);
            if (replicate) {
                e.replicated = true;
                e.lvaqSlot = lvaqQueue->allocate(
                    di.seq, idx, sd.info->load, di.accessSize,
                    di.inst.rs, di.inst.imm, di.baseVersion);
            }
        }

        registerConsumers(idx);

        if (sd.dest.valid())
            renameTable.setProducer(sd.dest, ProducerTag{idx, di.seq});

        if (tracer)
            tracer->onDispatch(idx, di.seq, curCycle);
        fetchQueue.pop_front();
        ++n;
    }
}

// ---- Fetch -------------------------------------------------------------------

void
Pipeline::fetchStage()
{
    std::size_t n = std::min(static_cast<std::size_t>(cfg.fetchWidth),
                             fetchQueueCap - fetchQueue.size());
    if (fetchLimit != 0)
        n = static_cast<std::size_t>(std::min<std::uint64_t>(
            n, fetchLimit > numFetched ? fetchLimit - numFetched : 0));
    if (n == 0)
        return;
    std::size_t k = fetchQueue.fill(executor, n);
    sourceHalted = executor.halted();
    for (std::size_t i = k; i > 0; --i)
        stream->record(fetchQueue.fromBack(i));
    numFetched += k;
    fetchedInsts += k;
    if (tracer)
        for (std::size_t i = 0; i < k; ++i)
            tracer->onFetch(curCycle);
}

namespace {

/**
 * fastForward's sink: counts each skipped access and call, return or
 * frame allocation into the stream statistics, trains the classifier
 * and warms the caches, all at one fixed cycle.
 */
class WarmingSink final : public vm::SkipSink
{
  public:
    WarmingSink(vm::StreamStats &stream, core::Classifier &classifier,
                mem::Hierarchy &hier, bool replicate, Cycle when)
        : stream(stream), classifier(classifier), l1(hier.l1()),
          lvc(hier.lvc()), replicate(replicate), when(when)
    {}

    void
    access(std::uint32_t pcIdx, const isa::Inst &inst, Addr addr,
           bool store, bool stack) override
    {
        stream.countAccess(inst, store, stack);
        // The cache that finally services the access. Replicated
        // steering puts a copy in both queues and address resolution
        // cancels the wrong one, so only this cache sees it.
        mem::Cache &actual = lvc && stack ? *lvc : l1;
        if (!replicate) {
            // A mispredicted access first warms the cache it was
            // steered to, then replays into the correct queue.
            bool toLvc = classifier.warmClassify(pcIdx, inst, stack) ==
                             Stream::Lvaq &&
                         lvc;
            mem::Cache &steered = toLvc ? *lvc : l1;
            if (&steered != &actual)
                steered.warm(addr, store, when);
        }
        actual.warm(addr, store, when);
    }

    void
    control(const isa::Inst &inst, std::uint32_t nextPcIdx) override
    {
        stream.countCallReturnFrame(inst, nextPcIdx);
    }

  private:
    vm::StreamStats &stream;
    core::Classifier &classifier;
    mem::Cache &l1;
    mem::Cache *const lvc;
    const bool replicate;
    const Cycle when;
};

} // namespace

std::uint64_t
Pipeline::fastForward(std::uint64_t n)
{
    const bool replicate =
        memHier->lvc() && cfg.classifier == config::ClassifierKind::Replicate;
    WarmingSink sink(*stream, *memClassifier, *memHier, replicate,
                     curCycle);
    std::uint64_t k = executor.skip(n, sink);
    sourceHalted = executor.halted();
    stream->instructions += k;
    return k;
}

// ---- Top level ------------------------------------------------------------------

void
Pipeline::cycleOnce()
{
    // The memory stage runs before commit so that a load polling its
    // queue can forward from a store in the same cycle the store
    // retires (otherwise every store that commits the cycle its data
    // arrives would silently steal its consumer's 1-cycle forward).
    // A consequence is that loads take cache ports ahead of
    // committing stores within a cycle.
    memoryStage();
    commitStage();
    issueStage();
    dispatchStage();
    fetchStage();
    if ((curCycle & 63) == 0)
        robOccupancy.sample(static_cast<std::uint64_t>(
            rob.occupancy()));
    ++curCycle;
    ++numCycles;

    if (curCycle - lastCommit > kDeadlockCycles && !rob.empty())
        raiseDeadlock();
}

void
Pipeline::raiseDeadlock()
{
    const vm::DynInst &h = instOf(rob[rob.headIdx()]);
    DeadlockInfo info;
    info.cycle = curCycle;
    info.sinceCommit = curCycle - lastCommit;
    info.headSeq = h.seq;
    info.headPcIdx = h.pcIdx;
    info.headDisasm = isa::disassemble(h.inst);
    info.robOccupancy = rob.occupancy();
    info.robSize = rob.size();
    info.lsqOccupancy = lsqQueue->occupancy();
    info.lvaqOccupancy = lvaqQueue ? lvaqQueue->occupancy() : -1;
    info.fetchQueue = fetchQueue.size();
    raise(DeadlockError(
        info,
        format("pipeline deadlock: no commit for %llu cycles; head: "
               "seq=%llu %s",
               (unsigned long long)info.sinceCommit,
               (unsigned long long)info.headSeq,
               info.headDisasm.c_str())));
}

bool
Pipeline::done() const
{
    return streamDone() && fetchQueue.empty() && rob.empty();
}

void
Pipeline::run(std::uint64_t maxInsts)
{
    fetchLimit = maxInsts;
    std::uint64_t iter = 0;
    while (!done()) {
        cycleOnce();
        checkGuards(iter++);
    }
}

void
Pipeline::runUntilFetched(std::uint64_t insts, std::uint64_t cap)
{
    fetchLimit = cap;
    std::uint64_t iter = 0;
    while (numFetched < insts && !streamDone()) {
        cycleOnce();
        checkGuards(iter++);
    }
}

void
Pipeline::setGuards(const RunGuards &g)
{
    guards = g;
    hasWallDeadline = g.maxWallSeconds > 0;
    if (hasWallDeadline)
        wallDeadline = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(
                               g.maxWallSeconds));
}

void
Pipeline::checkGuards(std::uint64_t iter)
{
    if (guards.maxCycles != 0 && curCycle > guards.maxCycles)
        raise(BudgetExceededError(
            "cycles", guards.maxCycles, curCycle,
            format("cycle budget exceeded: %llu simulated cycles "
                   "(budget %llu)",
                   (unsigned long long)curCycle,
                   (unsigned long long)guards.maxCycles)));
    // The wall-clock read is rate-limited; checking at iter == 0 keeps
    // the guard live even for runs of under 256 loop iterations.
    if (hasWallDeadline && (iter & 255) == 0 &&
        std::chrono::steady_clock::now() > wallDeadline) {
        auto ms = [](double s) {
            return static_cast<std::uint64_t>(s * 1000.0);
        };
        double spent =
            guards.maxWallSeconds +
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wallDeadline)
                .count();
        raise(BudgetExceededError(
            "wall", ms(guards.maxWallSeconds), ms(spent),
            format("wall-clock budget exceeded: %.1fs spent "
                   "(budget %.1fs)",
                   spent, guards.maxWallSeconds)));
    }
}

void
Pipeline::enableCommitLog(std::size_t n)
{
    commitRing.assign(n, CommittedRecord{});
    if (n == 0)
        commitRing.shrink_to_fit();
    commitRingHead = 0;
    commitRingCount = 0;
}

std::vector<CommittedRecord>
Pipeline::commitLog() const
{
    std::vector<CommittedRecord> out;
    out.reserve(commitRingCount);
    std::size_t start =
        (commitRingHead + commitRing.size() - commitRingCount) %
        (commitRing.empty() ? 1 : commitRing.size());
    for (std::size_t i = 0; i < commitRingCount; ++i)
        out.push_back(commitRing[(start + i) % commitRing.size()]);
    return out;
}

OccupancySnapshot
Pipeline::snapshotOccupancy() const
{
    OccupancySnapshot s;
    s.cycle = curCycle;
    s.lastCommitCycle = lastCommit;
    s.robOccupancy = rob.occupancy();
    s.robSize = rob.size();
    s.lsqOccupancy = lsqQueue->occupancy();
    s.lsqSize = lsqQueue->size();
    if (lvaqQueue) {
        s.lvaqOccupancy = lvaqQueue->occupancy();
        s.lvaqSize = lvaqQueue->size();
    }
    s.fetchQueue = fetchQueue.size();
    s.fetched = numFetched;
    s.committed = committedInsts.value();
    return s;
}

void
Pipeline::resetStats()
{
    resetAll();
}

double
Pipeline::ipc() const
{
    return stats::safeRatio(committedInsts.report(), numCycles.report());
}

} // namespace ddsim::cpu
