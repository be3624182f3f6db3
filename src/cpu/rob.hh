/**
 * @file
 * The reorder buffer (the paper's RUU): a circular window of in-flight
 * instructions. Entries carry their producer tags and, for memory
 * operations, a link to their queue slot.
 */

#ifndef DDSIM_CPU_ROB_HH_
#define DDSIM_CPU_ROB_HH_

#include <vector>

#include "cpu/rename.hh"
#include "isa/opcode.hh"
#include "util/types.hh"

namespace ddsim::cpu {

/** Which memory access queue a memory instruction lives in. */
enum class QueueKind : std::int8_t { None = -1, Lsq = 0, Lvaq = 1 };

/**
 * One in-flight instruction: only the fields the scheduler reads. Its
 * full vm::DynInst stays in the pipeline's instruction ring at
 * instSlot, read only by steering verification, tracing, the commit
 * log and the deadlock report.
 */
struct RobEntry
{
    InstSeq seq = 0;

    // Execution status: an entry is "completed" once its completion
    // time is known; the result is usable from readyAt onward.
    Cycle readyAt = 0;
    Cycle dispatchedAt = 0;

    // ---- Wakeup network (event-driven scheduling core) ----
    // With a perfect front end nothing is ever squashed, so consumer
    // links registered at dispatch stay valid until the producer's
    // completion walks them (always before the producer commits).
    Cycle eligibleAt = 0; ///< Earliest cycle the issue scan can act.

    // Register dependencies (producer tags; invalid = in regfile).
    ProducerTag src[2];

    const isa::OpInfo *info = nullptr; ///< Static opcode properties.
    Addr effAddr = 0;           ///< Memory operations only.
    std::uint32_t instSlot = 0; ///< DynInst's instruction-ring slot.

    // Memory operations.
    int queueSlot = -1;
    /**
     * Second queue slot under Replicate steering (paper footnote 3):
     * queueSlot is the LSQ copy and lvaqSlot the LVAQ copy; the wrong
     * one is cancelled when the address resolves.
     */
    int lvaqSlot = -1;

    int waitCount = 0;    ///< Issue-relevant producers still pending.
    int consHead = -1;    ///< Consumer list head (robIdx * 2 + slot).
    int consNext[2] = {-1, -1}; ///< Per-source-slot next link.

    isa::RegRef dest;     ///< Architectural destination, if any.
    std::int8_t numSrc = 0;
    QueueKind queueKind = QueueKind::None;
    bool valid = false;
    bool completed = false;
    bool stackAccess = false;   ///< Oracle: address in stack region.
    bool replicated = false;
    bool addrIssued = false;    ///< AGU operation started.
    bool storeDataSent = false; ///< Data readiness pushed to queue.

    bool isMem() const { return queueKind != QueueKind::None; }
};

/** Circular reorder buffer. */
class Rob
{
  public:
    explicit Rob(int size);

    bool full() const { return count == capacity; }
    bool empty() const { return count == 0; }
    int occupancy() const { return count; }
    int size() const { return capacity; }

    /** Allocate the tail entry; caller fills it in. */
    int
    allocate()
    {
        if (full())
            allocateFull();
        int idx = tail;
        if (++tail == capacity)
            tail = 0;
        ++count;
        // Targeted reset: seq, the instruction fields, dispatchedAt,
        // queueKind, numSrc and the first numSrc src tags are
        // unconditionally overwritten by the dispatch stage before
        // anything reads them, so only the remaining state is cleared
        // here.
        RobEntry &e = entries[static_cast<std::size_t>(idx)];
        e.valid = true;
        e.completed = false;
        e.readyAt = 0;
        e.src[0] = ProducerTag{};
        e.src[1] = ProducerTag{};
        e.queueSlot = -1;
        e.lvaqSlot = -1;
        e.replicated = false;
        e.addrIssued = false;
        e.storeDataSent = false;
        e.waitCount = 0;
        e.eligibleAt = 0;
        e.consHead = -1;
        e.consNext[0] = -1;
        e.consNext[1] = -1;
        return idx;
    }

    /** Free the head entry (in-order commit). */
    void
    releaseHead()
    {
        if (empty())
            releaseEmpty();
        entries[static_cast<std::size_t>(head)].valid = false;
        if (++head == capacity)
            head = 0;
        --count;
    }

    int headIdx() const { return head; }

    RobEntry &operator[](int idx)
    {
        return entries[static_cast<std::size_t>(idx)];
    }
    const RobEntry &operator[](int idx) const
    {
        return entries[static_cast<std::size_t>(idx)];
    }

    /** Iterate oldest-first: index of the p-th oldest entry. */
    int nth(int p) const { return (head + p) % capacity; }

  private:
    [[noreturn]] static void allocateFull();
    [[noreturn]] static void releaseEmpty();

    std::vector<RobEntry> entries;
    int capacity;
    int head = 0;
    int tail = 0;
    int count = 0;
};

} // namespace ddsim::cpu

#endif // DDSIM_CPU_ROB_HH_
