/**
 * @file
 * EventRing: the pipeline's cycle-bucketed event queue (a timing
 * wheel) keyed by ROB slot. A slot holds at most one pending event, so
 * the wheel stores nothing of its own: each cycle's bucket is the head
 * of a list threaded through one link per slot.
 */

#ifndef DDSIM_CPU_EVENT_RING_HH_
#define DDSIM_CPU_EVENT_RING_HH_

#include <array>
#include <cstddef>
#include <vector>

#include "util/log.hh"
#include "util/types.hh"

namespace ddsim::cpu {

/**
 * Push (slot, seq) at a cycle, drain everything due at or before
 * `now`. Same-cycle events are mutually independent (they set bits or
 * push store data for distinct entries), so bucket order is free and
 * the wheel replaces a priority queue without any semantic change.
 * Events land within a few hundred cycles (bounded by memory latency);
 * the rare farther ones wait on a side list, scanned at each drain,
 * until they are due.
 */
class EventRing
{
  public:
    /** @p slots: events are keyed by slot indices in [0, slots). */
    explicit EventRing(int slots)
        : nodes(static_cast<std::size_t>(slots))
    {
        heads.fill(-1);
    }

    /**
     * Schedule slot @p idx, holding instruction @p seq, at cycle @p c.
     * Panics if @p idx already has a pending event: a slot has one
     * link, and the pipeline pushes each instruction at most once.
     */
    void
    push(Cycle c, int idx, InstSeq seq)
    {
        Node &n = nodes[static_cast<std::size_t>(idx)];
        if (n.pending)
            panic("EventRing: slot %d already has a pending event", idx);
        n.pending = true;
        n.seq = seq;
        n.cycle = c;
        if (c - base < Span) {
            int &head = heads[c & (Span - 1)];
            n.next = head;
            head = idx;
            ++total;
        } else {
            n.next = farHead;
            farHead = idx;
        }
    }

    /** Invoke f(idx, seq) for every event due at cycle <= now. */
    template <class F>
    void
    drainUpTo(Cycle now, F &&f)
    {
        while (base <= now) {
            if (total == 0) {
                base = now + 1;
                break;
            }
            int i = heads[base & (Span - 1)];
            heads[base & (Span - 1)] = -1;
            ++base;
            while (i >= 0) {
                Node &n = nodes[static_cast<std::size_t>(i)];
                int idx = i;
                i = n.next;
                n.pending = false;
                --total;
                f(idx, n.seq);
            }
        }
        // Far events stay on their list until due.
        for (int *at = &farHead; *at >= 0;) {
            int idx = *at;
            Node &n = nodes[static_cast<std::size_t>(idx)];
            if (n.cycle <= now) {
                *at = n.next;
                n.pending = false;
                f(idx, n.seq);
            } else {
                at = &n.next;
            }
        }
    }

  private:
    static constexpr Cycle Span = 256; // Power of two.

    struct Node
    {
        InstSeq seq = 0;
        Cycle cycle = 0;      ///< Due cycle.
        int next = -1;        ///< Next slot in the same list.
        bool pending = false; ///< On a bucket or the far list.
    };

    std::array<int, Span> heads; ///< First slot due at each cycle.
    std::vector<Node> nodes;     ///< One per slot.
    int farHead = -1;            ///< Events at >= base + Span.
    Cycle base = 0;              ///< All events lie at >= base.
    std::size_t total = 0;       ///< Events currently on the wheel.
};

} // namespace ddsim::cpu

#endif // DDSIM_CPU_EVENT_RING_HH_
