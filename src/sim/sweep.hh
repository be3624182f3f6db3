/**
 * @file
 * SweepRunner: execute a grid of independent simulations across a
 * fixed-size worker pool, returning results in submission order.
 *
 * Every paper figure is a sweep of independent sim::run() calls —
 * programs x machine configurations — and simulation is deterministic,
 * so the grid can saturate all cores while producing results that are
 * bit-identical to a serial loop in submission order. SweepRunner is
 * the engine behind farm::runSerial, which runs every bench binary's
 * grid (its --jobs flag) and `ddsweep serial`.
 *
 * Determinism guarantee: for a given (program, config, options) job,
 * the SimResult is a pure function of its inputs. Worker count and
 * completion order affect only wall-clock time, never the results or
 * their order. See docs/SWEEPS.md.
 *
 * Every job runs through runJob, the one retry/quarantine loop:
 * SweepRunner's worker threads call it in-process, and the sweep
 * farm's worker processes (sim/farm.hh) call it for each claimed
 * point. SweepOutcome::add is the one place a job's disposition
 * becomes sweep counts, for collectOutcome() and the farm's merge
 * alike. See docs/ROBUSTNESS.md, "Sweep failure isolation".
 */

#ifndef DDSIM_SIM_SWEEP_HH_
#define DDSIM_SIM_SWEEP_HH_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "config/machine_config.hh"
#include "prog/program.hh"
#include "sim/result.hh"
#include "sim/runner.hh"
#include "util/thread_pool.hh"
#include "vm/trace.hh"

namespace ddsim {
class JsonWriter;
}

namespace ddsim::sim {

/**
 * How runJob retries transiently-failed jobs, on SweepRunner threads
 * and farm workers alike. Simulation is deterministic, so a retried
 * job that eventually succeeds returns exactly the SimResult a
 * first-try success would have — retry count affects wall-clock only,
 * never results.
 */
struct RetryPolicy
{
    /** Total attempts per job; 1 disables retry. */
    int maxAttempts = 3;
    /** Backoff before the first retry; doubles per further retry. */
    std::uint64_t backoffMs = 10;
    /** Backoff ceiling. */
    std::uint64_t maxBackoffMs = 1000;
};

/** Final disposition of one sweep job. */
enum class JobStatus : std::uint8_t
{
    Ok,          ///< Succeeded on the first attempt.
    Recovered,   ///< Failed transiently, succeeded on a retry.
    Quarantined, ///< Still failing after retries (or non-transient).
};

const char *jobStatusName(JobStatus s);

/** A classified failure: what any exception looks like to the
 *  supervisor. */
struct ErrorClass
{
    std::string kind;    ///< SimError::kind(), "alloc", or "unknown".
    std::string message;
    bool transient = false;
};

/** Classify @p e for retry/quarantine decisions. SimErrors report
 *  their own kind and transience; std::bad_alloc maps to "alloc"
 *  (transient — concurrent jobs release memory); anything else is
 *  "unknown" and permanent. */
ErrorClass classifyError(const std::exception_ptr &e);

/** Write the "error" member of the object @p w is in: null for an
 *  empty kind (never failed), else {kind, message, transient}. The one
 *  writer for the sweep manifest, the farm's job records and its
 *  merged manifest. */
void writeErrorField(JsonWriter &w, const ErrorClass &e);

/** Per-job record in a SweepOutcome. */
struct JobOutcome
{
    JobStatus status = JobStatus::Ok;
    int attempts = 1;
    /** The last (or recovered-from) error; empty kind = never failed. */
    ErrorClass error;
};

/**
 * Everything collectOutcome() reports: results in submission order
 * (quarantined indices hold a default-constructed SimResult) plus the
 * per-job status table.
 */
struct SweepOutcome
{
    std::vector<SimResult> results;
    std::vector<JobOutcome> jobs;
    bool degraded = false;        ///< Any job quarantined.
    std::size_t numQuarantined = 0;
    std::size_t numRecovered = 0;

    bool ok() const { return !degraded; }

    /**
     * Append the next job. A quarantined job's slot holds a
     * placeholder flagged SimResult::quarantined (so it is never
     * mistaken for a legitimate zero-stat result) and degrades the
     * sweep; @p result is ignored for it.
     */
    void add(JobOutcome job, SimResult result);
};

/** One (program, machine, options) point of a sweep grid. */
struct SweepJob
{
    /**
     * The program is shared read-only across jobs: build each workload
     * once (see ProgramCache) and reference it from every
     * configuration that sweeps it.
     */
    std::shared_ptr<const prog::Program> program;
    config::MachineConfig cfg;
    RunOptions opts{};
};

/**
 * Memoizes dynamic-trace recording so each (program, instruction cap)
 * is functionally executed exactly once and the recording is shared
 * read-only by every job that replays it. Thread-safe: concurrent
 * get() calls for the same key block on one std::call_once while the
 * first caller records; different keys record in parallel.
 */
class TraceCache
{
  public:
    /** The trace for @p program capped at @p maxInsts (0 = full). */
    std::shared_ptr<const vm::RecordedTrace>
    get(const std::shared_ptr<const prog::Program> &program,
        std::uint64_t maxInsts = 0);

    /** Number of distinct traces resident right now. */
    std::size_t size() const;

    /** Distinct traces recorded over the cache's lifetime (resident
     *  or since evicted) — lets tests observe re-recording. */
    std::size_t recordings() const;

    /**
     * Bound the resident recordings to @p bytes of encoded trace
     * (0 = unlimited, the default). When an insertion pushes the
     * total over the budget, least-recently-used traces are evicted —
     * never the one just requested, so a single over-budget trace
     * still works. Evicted traces stay alive for jobs still holding
     * their shared_ptr; only the cache lets go, so a long farm run
     * over many programs keeps bounded RSS at the cost of
     * re-recording on a future touch.
     */
    void setByteBudget(std::size_t bytes);

    /** Encoded bytes of all resident recordings. */
    std::size_t residentBytes() const;

  private:
    struct Entry
    {
        std::once_flag once;
        std::shared_ptr<const vm::RecordedTrace> trace;
        /**
         * Keeps the recorded program alive (the trace replays against
         * it) and its address un-reusable as a future cache key.
         */
        std::shared_ptr<const prog::Program> pin;
        std::size_t bytes = 0;    ///< Set inside the call_once.
        bool counted = false;     ///< Folded into totalBytes (under mu).
        std::uint64_t lastUse = 0;
    };

    using Key = std::pair<const prog::Program *, std::uint64_t>;

    /** Caller holds mu. Evict LRU entries until within budget. */
    void evictLocked(const Entry *keep);

    mutable std::mutex mu;
    std::map<Key, std::shared_ptr<Entry>> cache;
    std::size_t byteBudget = 0;   ///< 0 = unlimited.
    std::size_t totalBytes = 0;
    std::uint64_t useClock = 0;
    std::size_t numRecorded = 0;
};

/** What runJob reports for one job. */
struct JobRun
{
    JobOutcome outcome;
    SimResult result;             ///< Meaningful unless quarantined.
    std::exception_ptr failure;   ///< Set only when quarantined.
};

/**
 * Run one job under @p policy — the one retry/quarantine loop behind
 * SweepRunner's threads and the farm's workers (docs/ROBUSTNESS.md,
 * "Sweep failure isolation"). Each attempt first fetches the job's
 * shared recording from @p traces when the job replays one and brings
 * no stream of its own, then calls sim::run.
 * A failure is classified (classifyError): a transient one backs off
 * and retries while attempts remain; anything else quarantines the
 * job. Never throws — pool tasks must not — so the caller decides what
 * a captured failure means.
 */
JobRun runJob(SweepJob job, TraceCache &traces,
              const RetryPolicy &policy);

/**
 * Runs sweep jobs on a worker pool; results come back in submission
 * order regardless of completion order.
 */
class SweepRunner
{
  public:
    /**
     * @param workers Worker threads; 0 means one per hardware thread.
     */
    explicit SweepRunner(unsigned workers = 0);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /**
     * Enqueue one job; execution may begin immediately on an idle
     * worker. @return the job's submission index, which is also its
     * index in collectOutcome()'s results.
     */
    std::size_t submit(SweepJob job);
    std::size_t submit(std::shared_ptr<const prog::Program> program,
                       const config::MachineConfig &cfg,
                       const RunOptions &opts = {});

    /**
     * Block until every job has finished (transient failures having
     * been retried per the RetryPolicy on the workers), then return
     * the results in submission order plus the per-job status table.
     * A failed job is quarantined — its result slot is a flagged
     * placeholder and the sweep is marked degraded — and never takes
     * the rest of the grid down with it. Resets the runner: the next
     * submit() starts a fresh grid at index 0.
     */
    SweepOutcome collectOutcome();

    /** Replace the transient-failure retry policy (default: 3
     *  attempts, 10 ms exponential backoff). Affects jobs submitted
     *  after the call. */
    void setRetryPolicy(const RetryPolicy &p) { retryPolicy = p; }

    /** Jobs submitted since the last collectOutcome(). */
    std::size_t pending() const { return slots.size(); }

    /** Number of worker threads. */
    unsigned workers() const { return pool.size(); }

    /** Traces the shared cache has recorded so far (see
     *  TraceCache::recordings). */
    std::size_t traceRecordings() const { return traces.recordings(); }

    /** Bound the shared trace cache (see TraceCache::setByteBudget). */
    void setTraceCacheBudget(std::size_t bytes)
    {
        traces.setByteBudget(bytes);
    }

  private:
    ThreadPool pool;
    std::deque<JobRun> slots; ///< deque: stable addresses across submit()
    /** One recording per (program, fetch cap), shared by every job
     *  that replays one (see runJob). */
    TraceCache traces;
    RetryPolicy retryPolicy;
};

/**
 * Aggregate the per-run manifests captured by a sweep (jobs submitted
 * with RunOptions::captureManifest) into one sweep-level JSON
 * document ("ddsim-sweep-manifest-v1"): generator provenance, the
 * sweep title, `"degraded"`, quarantine/recovery counts, a `"jobs"`
 * array with each job's status, attempt count and classified error,
 * and a `"runs"` array holding each run's full manifest in submission
 * order. Results without a captured manifest (quarantined points
 * among them) appear as null entries so indices still line up with
 * the submission grid. A degraded sweep still validates — downstream
 * tooling sees exactly which points are missing instead of getting
 * no manifest at all.
 */
void writeSweepManifest(const std::string &title,
                        const SweepOutcome &outcome, std::ostream &os);

/** writeSweepManifest into a file, atomically; raises IoError if
 *  unwritable. */
void writeSweepManifestFile(const std::string &title,
                            const SweepOutcome &outcome,
                            const std::string &path);

/**
 * Memoizes program construction so each workload is built exactly
 * once and shared read-only across every job that sweeps it.
 * Thread-safe; the builder runs under the cache lock, so concurrent
 * get() calls for the same key build once.
 */
class ProgramCache
{
  public:
    using Builder = std::function<prog::Program()>;

    /** Return the program cached under @p key, building on first use. */
    std::shared_ptr<const prog::Program> get(const std::string &key,
                                             const Builder &build);

    /** Number of distinct programs built so far. */
    std::size_t size() const;

  private:
    mutable std::mutex mu;
    std::map<std::string, std::shared_ptr<const prog::Program>> cache;
};

} // namespace ddsim::sim

#endif // DDSIM_SIM_SWEEP_HH_
