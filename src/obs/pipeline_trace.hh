/**
 * @file
 * Per-instruction pipeline lifecycle tracing. Every committed
 * instruction produces one compact binary record: the cycle it passed
 * each stage (fetch, dispatch, queue entry, issue, cache access /
 * forward, writeback, commit), which memory stream served it (LSQ vs
 * LVAQ), and how (cache port, in-queue forward, fast forward,
 * combined grant). Records are written in commit order, which on this
 * machine (perfect front end, no squashes) is also fetch order.
 *
 * Binary format "ddtrace1" (all integers little-endian):
 *
 *   magic     8 bytes  "ddtrace1"
 *   version   u32      currently 1
 *   workload  u16 len + bytes
 *   notation  u16 len + bytes
 *   label     u16 len + bytes
 *   records   u64      record count (patched on finish; ~0 = writer
 *                      died before finish)
 *   then per record:
 *     seqDelta    varint  sequence number delta from previous record
 *     pcIdx       varint  static instruction index
 *     flags       u8      bit0 load, bit1 store, bit2 LVAQ stream,
 *                         bit3 replicated, bit4 forwarded,
 *                         bit5 fast-forwarded, bit6 combined,
 *                         bit7 missteered
 *     commitDelta varint  commit cycle delta from previous record
 *     6 x varint          backward offsets from the commit cycle for
 *                         fetch, dispatch, queue-enter, issue,
 *                         access, writeback; encoded as
 *                         (commit - cycle + 1), 0 = cycle unknown
 *
 * Varints are LEB128 (7 bits per byte, high bit = continuation).
 */

#ifndef DDSIM_OBS_PIPELINE_TRACE_HH_
#define DDSIM_OBS_PIPELINE_TRACE_HH_

#include <cstdint>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "util/atomic_file.hh"

namespace ddsim::obs {

/** Trace format version written by this build. */
inline constexpr std::uint32_t kTraceVersion = 1;
/** File magic. */
inline constexpr char kTraceMagic[8] = {'d', 'd', 't', 'r',
                                        'a', 'c', 'e', '1'};

/** Sentinel for "this cycle was never observed". */
inline constexpr std::uint64_t kNoCycle = ~std::uint64_t{0};

/** One decoded (or to-be-encoded) instruction lifecycle record. */
struct TraceRecord
{
    std::uint64_t seq = 0;      ///< Dynamic sequence number.
    std::uint32_t pcIdx = 0;    ///< Static instruction index.

    bool isLoad = false;
    bool isStore = false;
    bool lvaqStream = false;    ///< Served by the LVAQ (else LSQ).
    bool replicated = false;    ///< Inserted into both queues.
    bool forwarded = false;     ///< In-queue store-to-load forward.
    bool fastForwarded = false; ///< Offset-matched fast forward.
    bool combined = false;      ///< Rode a combined port grant.
    bool missteered = false;    ///< Classifier picked the wrong queue.

    std::uint64_t fetchCycle = kNoCycle;
    std::uint64_t dispatchCycle = kNoCycle;
    std::uint64_t queueCycle = kNoCycle;  ///< Memory queue entry.
    std::uint64_t issueCycle = kNoCycle;  ///< FU / AGU issue.
    std::uint64_t accessCycle = kNoCycle; ///< Cache access or forward.
    std::uint64_t wbCycle = kNoCycle;     ///< Result writeback.
    std::uint64_t commitCycle = 0;
};

/**
 * Streams TraceRecords to a binary file as instructions commit. The
 * cpu::Pipeline drives it through four hooks; all per-slot lifecycle
 * bookkeeping (fetch-cycle FIFO, per-ROB-slot fetch/issue cycles)
 * lives here so the pipeline pays nothing when tracing is off.
 */
class PipelineTracer
{
  public:
    /**
     * @param path Output file. The trace streams to "<path>.tmp" and
     *             only lands under @p path when finish() completes, so
     *             a killed run never leaves a torn trace; raises
     *             IoError if the temporary cannot be opened.
     * @param robSize Slots in the pipeline's reorder buffer.
     */
    PipelineTracer(const std::string &path, const std::string &workload,
                   const std::string &notation, const std::string &label,
                   int robSize);
    ~PipelineTracer();

    PipelineTracer(const PipelineTracer &) = delete;
    PipelineTracer &operator=(const PipelineTracer &) = delete;

    /** An instruction entered the fetch queue this cycle. */
    void onFetch(std::uint64_t cycle) { fetchFifo.push_back(cycle); }

    /** The oldest fetched instruction dispatched into ROB slot @p idx. */
    void onDispatch(int robIdx, std::uint64_t seq, std::uint64_t cycle);

    /** ROB slot @p idx issued (FU grant or address generation). */
    void onIssue(int robIdx, std::uint64_t cycle)
    {
        slots[static_cast<std::size_t>(robIdx)].issue = cycle;
    }

    /**
     * ROB slot @p robIdx committed. @p rec carries everything the
     * pipeline knows (pc, flags, dispatch/queue/access/wb/commit);
     * fetch and issue cycles are filled in from the slot state
     * recorded by the earlier hooks, then the record is encoded.
     */
    void onCommit(int robIdx, TraceRecord rec);

    /**
     * Patch the record count into the header, then atomically rename
     * the temporary onto the final path; raises IoError on failure.
     */
    void finish();

    /** Delete the temporary without publishing anything (error path). */
    void abandon();

    std::uint64_t records() const { return numRecords; }

  private:
    struct SlotState
    {
        std::uint64_t seq = kNoCycle; ///< Tag; kNoCycle = never set.
        std::uint64_t fetch = kNoCycle;
        std::uint64_t issue = kNoCycle;
    };

    AtomicFile file;
    std::ofstream &os; ///< file.stream(), for terse encode calls.
    std::vector<SlotState> slots;
    std::deque<std::uint64_t> fetchFifo;
    std::uint64_t numRecords = 0;
    std::uint64_t prevCommit = 0;
    std::uint64_t prevSeq = 0;
    std::streampos countPos;
    bool finished = false;
};

/** Header fields of a trace file. */
struct TraceHeader
{
    std::uint32_t version = 0;
    std::string workload;
    std::string notation;
    std::string label;
    std::uint64_t recordCount = 0;
};

/** Sequentially decodes a trace file written by PipelineTracer. */
class TraceReader
{
  public:
    /**
     * Opens and validates the header. Raises IoError if the file
     * cannot be opened and TraceCorruptError (with the byte offset of
     * the first undecodable input) on bad magic, an unsupported
     * version, a truncated header, or an unfinalized count.
     */
    explicit TraceReader(const std::string &path);

    const TraceHeader &header() const { return hdr; }

    /**
     * Decode the next record; false at end of stream. Any truncation,
     * malformed varint or impossible stage offset raises
     * TraceCorruptError — corrupt input never reads out of bounds or
     * underflows a cycle computation.
     */
    bool next(TraceRecord &rec);

  private:
    std::ifstream is;
    std::string path_;
    TraceHeader hdr;
    std::uint64_t prevCommit = 0;
    std::uint64_t prevSeq = 0;
    std::uint64_t decodedCount = 0;

    bool getVarint(std::uint64_t &v);
    /** Current byte offset for corruption reports. */
    std::uint64_t offset();
    [[noreturn]] void corrupt(std::uint64_t off, const std::string &msg);
};

} // namespace ddsim::obs

#endif // DDSIM_OBS_PIPELINE_TRACE_HH_
