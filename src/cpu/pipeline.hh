/**
 * @file
 * The out-of-order core: a cycle-accurate model of the paper's
 * six-stage machine (fetch, dispatch, issue, execute, writeback,
 * commit) with an RUU/ROB window, per-stream memory access queues and
 * a perfect front end (Section 3.1).
 *
 * Each simulated cycle runs, in order: commit (stores write their
 * cache, taking port priority), memory tick (loads issue to the
 * caches or forward in-queue), issue (FU and address-generation
 * selection, oldest first), dispatch (rename + steer memory ops into
 * LSQ/LVAQ) and fetch (pull from the functional executor). The run
 * loops tick every cycle, idle ones included, as sim-outorder does,
 * so every statistic accrues in the cycle where it happens.
 */

#ifndef DDSIM_CPU_PIPELINE_HH_
#define DDSIM_CPU_PIPELINE_HH_

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "config/machine_config.hh"
#include "core/age_bits.hh"
#include "core/classifier.hh"
#include "core/mem_queue.hh"
#include "cpu/event_ring.hh"
#include "cpu/fu_pool.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "isa/inst.hh"
#include "isa/opcode.hh"
#include "mem/hierarchy.hh"
#include "stats/group.hh"
#include "stats/histogram.hh"
#include "stats/stat.hh"
#include "vm/trace.hh"

namespace ddsim::obs {
class Sampler;
class PipelineTracer;
}

namespace ddsim::cpu {

/**
 * Forward-progress watchdog threshold: a non-empty window that goes
 * this many cycles without a commit is declared deadlocked and the
 * run raises DeadlockError. Far beyond any legitimate stall on this
 * machine (the longest chain is a handful of dependent memory-latency
 * round trips, ~10^2-10^3 cycles).
 */
inline constexpr Cycle kDeadlockCycles = 100000;

/** Hard limits enforced by the run loops (0 = unlimited). */
struct RunGuards
{
    std::uint64_t maxCycles = 0;  ///< Budget on simulated cycles.
    double maxWallSeconds = 0.0;  ///< Budget on host wall-clock time.
};

/** One entry of the last-committed-instructions ring (black box). */
struct CommittedRecord
{
    InstSeq seq = 0;
    std::uint32_t pcIdx = 0;
    isa::Inst inst;
    Cycle cycle = 0;
};

/** Point-in-time structure occupancies (black-box snapshot). */
struct OccupancySnapshot
{
    Cycle cycle = 0;
    Cycle lastCommitCycle = 0;
    int robOccupancy = 0, robSize = 0;
    int lsqOccupancy = 0, lsqSize = 0;
    int lvaqOccupancy = -1, lvaqSize = 0; ///< -1 = no LVAQ.
    std::size_t fetchQueue = 0;
    std::uint64_t fetched = 0;
    std::uint64_t committed = 0;
};

/** The complete simulated processor. */
class Pipeline : public stats::Group
{
  public:
    /**
     * @param parent Stats parent (the run's root group).
     * @param cfg Machine configuration (validated by the caller).
     * @param src Instruction stream — a live vm::Executor or a
     *        vm::TraceReplay; not owned.
     */
    Pipeline(stats::Group *parent, const config::MachineConfig &cfg,
             vm::InstSource &src);

    /**
     * Run until the program halts (or @p maxInsts instructions have
     * been fetched) and the pipeline drains.
     */
    void run(std::uint64_t maxInsts = 0);

    /**
     * Advance until at least @p insts instructions have been fetched
     * (or the stream ends) *without* draining the pipeline — the
     * warmup phase of a sampled simulation. Fetch stops at @p cap
     * instructions (0 = no cap), exactly where a stream that ends
     * there would stop it.
     */
    void runUntilFetched(std::uint64_t insts, std::uint64_t cap = 0);

    /**
     * Zero all statistics (cycles, committed counts, cache and queue
     * counters) while keeping the microarchitectural state — caches
     * stay warm, in-flight instructions stay in flight. Used after
     * warmup.
     */
    void resetStats();

    /** Advance one cycle (exposed for tests). */
    void cycleOnce();

    /**
     * Stream a one-line-per-instruction timing trace (sequence, pc,
     * disassembly, dispatch/ready/commit cycles, memory-queue
     * placement) to @p os as instructions commit. Pass nullptr to
     * stop tracing. Intended for small programs and debugging.
     */
    void setTrace(std::ostream *os) { traceOut = os; }

    /**
     * Attach an interval stats sampler (nullptr to detach). Observed
     * after each commit batch; costs one pointer test per cycle when
     * detached and never perturbs timing.
     */
    void setSampler(obs::Sampler *s) { sampler = s; }

    /**
     * Attach a binary lifecycle tracer (nullptr to detach). The
     * tracer sees fetch/dispatch/issue/commit events; like the
     * sampler, detached operation is a null-pointer test per event
     * site and timing is never affected.
     */
    void setTracer(obs::PipelineTracer *t) { tracer = t; }

    /**
     * Arm the run-loop budgets. The wall-clock deadline starts when
     * this is called, so a warmup phase and the measured run share
     * one budget. Exceeding a budget raises BudgetExceededError from
     * the run loop; a cycle budget never perturbs the timing of runs
     * that finish within it.
     */
    void setGuards(const RunGuards &g);

    /**
     * Keep the last @p n committed instructions in a ring for crash
     * reports (0 disables). Costs one branch per commit when off.
     */
    void enableCommitLog(std::size_t n);

    /** The ring's contents, oldest first. */
    std::vector<CommittedRecord> commitLog() const;

    /** Current structure occupancies, for the black-box writer. */
    OccupancySnapshot snapshotOccupancy() const;

    /**
     * Fault injection: silently drop the @p nth (1-based) wakeup event
     * from now on — the woken instruction never issues and the
     * watchdog must catch the induced deadlock. 0 disarms. Zero-cost
     * when disarmed beyond one counter test per wakeup.
     */
    void armWakeupDrop(std::uint64_t nth) { wakeupDropCountdown = nth; }

    /** True when the stream is exhausted and the pipeline is empty. */
    bool done() const;

    /**
     * Instructions fetched from the source so far (monotonic across
     * resetStats). The sampled driver uses this to size its windows
     * and to drain exactly the in-flight window.
     */
    std::uint64_t fetchedCount() const { return numFetched; }

    /**
     * Functional fast-forward with warming: skip up to @p n
     * instructions of the source (InstSource::skip, no timing and no
     * records) into a warming sink that accounts each to the stream
     * statistics and, for memory operations, touches the caches and
     * trains the region predictor as the instruction would have —
     * without advancing time or any other statistic. The sampled engine fast-forwards between windows
     * this way so measured windows start with live
     * microarchitectural state instead of state frozen at the
     * previous window's end. Call it only with the pipeline drained.
     *
     * @return Instructions executed: min(@p n, instructions left).
     */
    std::uint64_t fastForward(std::uint64_t n);

    Cycle now() const { return curCycle; }
    double ipc() const;

    // Component access for tests and benches.
    mem::Hierarchy &hierarchy() { return *memHier; }
    core::MemQueue &lsq() { return *lsqQueue; }
    core::MemQueue *lvaq() { return lvaqQueue.get(); }
    core::Classifier &classifier() { return *memClassifier; }
    vm::StreamStats &streamStats() { return *stream; }
    const config::MachineConfig &machineConfig() const { return cfg; }

    // Stats.
    stats::Scalar numCycles;
    stats::Scalar committedInsts;
    stats::Scalar fetchedInsts;
    stats::Scalar issuedOps;
    stats::Scalar agIssues;          ///< Address generations issued.
    stats::Scalar robFullStalls;     ///< Dispatch halted: ROB full.
    stats::Scalar lsqFullStalls;
    stats::Scalar lvaqFullStalls;
    stats::Scalar commitPortStalls;  ///< Store commit blocked on ports.
    stats::Histogram robOccupancy;   ///< Sampled window occupancy.
    stats::Formula ipcStat;          ///< committed / cycles.

  private:
    config::MachineConfig cfg;
    vm::InstSource &executor;

    std::unique_ptr<mem::Hierarchy> memHier;
    std::unique_ptr<core::Classifier> memClassifier;
    std::unique_ptr<core::MemQueue> lsqQueue;
    std::unique_ptr<core::MemQueue> lvaqQueue;
    std::unique_ptr<vm::StreamStats> stream;
    FuPool fuPool;
    Rob rob;
    RenameTable renameTable;

    /**
     * The in-flight instruction records in fetch order: a power-of-two
     * ring the front end fills one block per cycle through a single
     * InstSource::fill call. It spans the fetch queue (the records
     * fetched but not yet dispatched, [head, tail)) and the ROB: a
     * record stays in its slot until its instruction commits, so
     * dispatch copies no DynInst and a RobEntry keeps only the slot.
     * The buffer runs one block past the ring so that a block that
     * wraps is written contiguously; its tail is then copied to the
     * front.
     */
    class InstRing
    {
      public:
        /** @p span: records live at once; @p maxBlock: largest fill. */
        void
        init(std::size_t span, std::size_t maxBlock)
        {
            mask = std::bit_ceil(span) - 1;
            buf.assign(mask + 1 + maxBlock, vm::DynInst{});
        }

        // The fetch queue.
        bool empty() const { return headPos == tailPos; }
        std::size_t size() const { return tailPos - headPos; }
        const vm::DynInst &front() const { return buf[frontSlot()]; }
        std::uint32_t
        frontSlot() const
        {
            return static_cast<std::uint32_t>(headPos & mask);
        }
        void pop_front() { ++headPos; }

        /** Append up to @p n records from @p src; returns the count. */
        std::size_t
        fill(vm::InstSource &src, std::size_t n)
        {
            std::size_t at = tailPos & mask;
            std::size_t k = src.fill(&buf[at], n);
            if (at + k > mask + 1)
                std::copy(buf.begin() + static_cast<std::ptrdiff_t>(
                                            mask + 1),
                          buf.begin() +
                              static_cast<std::ptrdiff_t>(at + k),
                          buf.begin());
            tailPos += k;
            return k;
        }

        /** The @p i-th record from the tail (1 = newest). */
        const vm::DynInst &
        fromBack(std::size_t i) const
        {
            return buf[(tailPos - i) & mask];
        }

        /** The record in @p slot (a RobEntry's instSlot). */
        const vm::DynInst &
        operator[](std::uint32_t slot) const
        {
            return buf[slot];
        }

      private:
        std::vector<vm::DynInst> buf;
        std::size_t mask = 0;
        std::size_t headPos = 0;
        std::size_t tailPos = 0;
    };

    /**
     * Per-static-instruction decode memo, indexed by pcIdx and built
     * lazily at first dispatch: operand register references and the
     * OpInfo pointer. Pure memoization of the isa:: decode helpers —
     * it replaces their per-dynamic-instruction Format switches and
     * table lookups on the dispatch/issue hot path.
     */
    struct StaticOp
    {
        const isa::OpInfo *info = nullptr; ///< null = not yet decoded
        isa::RegRef srcs[2];
        isa::RegRef dest;
        std::int8_t numSrc = 0;
        bool mem = false;
    };
    std::vector<StaticOp> decodeCache;

    const StaticOp &decoded(const vm::DynInst &di)
    {
        if (di.pcIdx >= decodeCache.size())
            decodeCache.resize(std::max<std::size_t>(
                decodeCache.size() * 2, di.pcIdx + 1));
        StaticOp &s = decodeCache[di.pcIdx];
        if (!s.info) {
            s.info = &isa::opInfo(di.inst.op);
            s.numSrc = static_cast<std::int8_t>(
                isa::srcRegs(di.inst, s.srcs));
            s.dest = isa::destReg(di.inst);
            s.mem = s.info->load || s.info->store;
        }
        return s;
    }

    InstRing fetchQueue;
    std::size_t fetchQueueCap;

    /** The full record of the instruction in @p e. */
    const vm::DynInst &
    instOf(const RobEntry &e) const
    {
        return fetchQueue[e.instSlot];
    }

    std::uint64_t fetchLimit = 0; ///< 0 = unlimited.
    std::uint64_t numFetched = 0;
    /**
     * executor.halted() as of the last fill or skip: only those two
     * calls advance the source while the pipeline runs, so the run
     * loops read this instead of a virtual call every cycle.
     */
    bool sourceHalted = false;

    /** True when fetch has reached the stream's end or the cap. */
    bool
    streamDone() const
    {
        return sourceHalted ||
               (fetchLimit != 0 && numFetched >= fetchLimit);
    }

    Cycle curCycle = 0;
    Cycle lastCommit = 0;
    std::vector<core::LoadCompletion> completions;
    std::ostream *traceOut = nullptr;
    obs::Sampler *sampler = nullptr;
    obs::PipelineTracer *tracer = nullptr;

    // ---- Run guards and crash reporting ----------------------------
    RunGuards guards;
    std::chrono::steady_clock::time_point wallDeadline;
    bool hasWallDeadline = false;
    /** Ring of the last N commits; empty = logging off. */
    std::vector<CommittedRecord> commitRing;
    std::size_t commitRingHead = 0;
    std::size_t commitRingCount = 0;
    /** Countdown to the injected wakeup drop; 0 = disarmed. */
    std::uint64_t wakeupDropCountdown = 0;

    /** Budget checks for the run loops; @p iter rate-limits the
     *  wall-clock read to every 256th iteration. */
    void checkGuards(std::uint64_t iter);
    [[noreturn]] void raiseDeadlock();

    // ---- Event-driven scheduling core ------------------------------
    /**
     * readyEvents holds instructions whose issue-relevant sources all
     * have known completion times; they join the issuable bitmap once
     * their cycle arrives and stay there until they act (FU- or
     * width-blocked entries simply keep their bit). storeDataEvents
     * holds stores whose data-operand push must run at a cycle — the
     * exact cycle the seed's per-window pushStoreData walk would
     * first have pushed.
     */
    EventRing readyEvents;
    EventRing storeDataEvents;
    /** Per-ROB-slot "visit me in the issue scan" bits, age-iterated. */
    std::vector<std::uint64_t> issuableBits;

    /**
     * All wakeups route through here so the armed fault above can
     * swallow exactly one: the dropped instruction stays
     * un-issuable forever, which is precisely the "lost wakeup" bug
     * class the deadlock watchdog exists to catch.
     */
    void pushReady(Cycle c, int idx, InstSeq seq)
    {
        if (wakeupDropCountdown != 0 && --wakeupDropCountdown == 0)
            return;
        readyEvents.push(c, idx, seq);
    }

    void markIssuable(int idx) { core::setAgeBit(issuableBits, idx); }
    void clearIssuable(int idx) { core::clearAgeBit(issuableBits, idx); }

    /** Register @p idx's source edges at dispatch. */
    void registerConsumers(int idx);
    /**
     * Producer @p pIdx's completion time just became known: wake its
     * consumers. @p inIssueStage selects how store-data edges fire
     * (immediately mid-scan, as the seed's walk did, vs deferred to
     * this cycle's issue stage when the completion arrives from the
     * memory stage).
     */
    void onProducerComplete(int pIdx, bool inIssueStage);
    /** Run one issuable entry; false stops the scan (width spent). */
    bool visitIssuable(int idx, int &issued);

    void traceCommit(const RobEntry &e);
    void recordCommit(const RobEntry &e, int idx);

    void commitStage();
    void memoryStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    core::MemQueue &queueOf(QueueKind kind);
    bool srcReady(const ProducerTag &tag) const;
    void pushStoreData(RobEntry &e);
};

} // namespace ddsim::cpu

#endif // DDSIM_CPU_PIPELINE_HH_
