/**
 * @file
 * The sweep farm: durable, sharded, resumable multi-process execution
 * of a ddsim-grid-v1 parameter grid. Each point runs through
 * sim::runJob, the retry/quarantine loop sim::SweepRunner's threads
 * call in-process; the farm adds only what is truly distributed:
 * spool layout, rename(2) claims, leases, seals and merge.
 *
 * A grid is persisted as a *spool* directory — one atomic job-spec
 * file per grid point — and executed by worker processes that claim
 * jobs via atomic rename(2):
 *
 *   <spool>/
 *     grid.json                        the full ddsim-grid-v1 spec
 *     jobs/job-000012.s003.json        pending point 12, shard 3
 *     claims/job-000012.s003.w1.json   lease doc held by worker "w1"
 *     results/job-000012.json          ddsim-job-result-v2 record
 *     results/job-000012.manifest.json raw per-run manifest bytes
 *     blackbox/job-000012.json         crash report of a failed attempt
 *     corrupt/...                      quarantined damaged artifacts
 *
 * Sharding is a locality hint, not a partition: each worker prefers
 * job files carrying its shard tag and *steals* from any other shard
 * once its own is drained, so an unlucky shard never strands the
 * farm. Because a claim is a rename, a job can never run twice
 * concurrently and can never be lost: it exists in exactly one of
 * jobs/, claims/ or (by id) results/ at any instant.
 *
 * Leases: immediately after the claim rename, the worker overwrites
 * the claim file with a ddsim-claim-v1 lease document (worker id,
 * pid, acquisition time) and refreshes its mtime from a heartbeat
 * thread while the job runs. The supervisor reads heartbeat age as
 * liveness: a claim whose mtime goes stale past the lease interval
 * belongs to a wedged worker — the worker is SIGKILLed and the point
 * reclaimed — and a claim older than the per-job wall budget marks a
 * truly hung job, which is quarantined rather than rerun forever.
 *
 * Integrity: spooled job specs and result records carry a CRC32 seal
 * over their payload, and each result records the CRC32 of its
 * manifest bytes. Artifacts are verified at claim, resume and merge
 * time; anything damaged is moved to corrupt/ and its grid point
 * re-run from grid.json (the source of truth), never spliced into a
 * merged manifest.
 *
 * Crash isolation: workers are separate processes. A job that
 * segfaults kills only its worker; the supervisor observes the
 * signaled exit, requeues the dead worker's claims, respawns a
 * replacement, and — after a bounded number of crashes at the same
 * point — quarantines that job with a "crash" error instead of
 * retrying forever. A dead worker and a stale lease are the same
 * event to the supervisor, a lost claim, and count together. Workers
 * asked to stop (SIGTERM) drain gracefully: the in-flight point
 * completes and persists, no claim is stranded, and the process exits
 * cleanly.
 *
 * Resume: every artifact is written atomically through io::vfs()
 * (write, fsync, rename, directory fsync — each step
 * fault-injectable), so an interrupted farm (SIGKILL, power loss,
 * any I/O op) leaves a spool from which requeueIncomplete()
 * re-derives exactly the missing and (optionally) quarantined
 * points; re-running those and merging yields a sweep manifest
 * byte-identical to an uninterrupted run. Jobs request canonical
 * manifests (RunOptions::canonicalManifest), so the merged document
 * is also byte-identical to a single-process SweepRunner reference
 * over the same grid — the farm is, observably, just a faster
 * SweepRunner that survives crashes.
 */

#ifndef DDSIM_SIM_FARM_HH_
#define DDSIM_SIM_FARM_HH_

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

#include "sim/grid_spec.hh"
#include "sim/sweep.hh"

namespace ddsim::sim::farm {

/** Schema stamped on spooled per-job spec files (v2: CRC32 seal). */
inline constexpr const char *kJobSchema = "ddsim-job-v2";
/** Schema stamped on per-job result records (v2: CRC32 seal over the
 *  record payload plus the CRC32 of the captured manifest bytes). */
inline constexpr const char *kJobResultSchema = "ddsim-job-result-v2";
/** Schema stamped on the lease document a worker leaves in claims/. */
inline constexpr const char *kClaimSchema = "ddsim-claim-v1";
/** Schema stamped on the merged farm (shard-provenance) manifest. */
inline constexpr const char *kFarmManifestSchema =
    "ddsim-farm-manifest-v1";

/** Path arithmetic for one spool directory. */
struct Spool
{
    explicit Spool(std::string root) : root(std::move(root)) {}

    std::string root;

    std::string gridPath() const { return root + "/grid.json"; }
    std::string jobsDir() const { return root + "/jobs"; }
    std::string claimsDir() const { return root + "/claims"; }
    std::string resultsDir() const { return root + "/results"; }
    std::string blackboxDir() const { return root + "/blackbox"; }
    /** Quarantine for artifacts that failed CRC verification. */
    std::string corruptDir() const { return root + "/corrupt"; }

    /** "job-000012.s003.json" */
    static std::string jobFileName(std::uint64_t id, int shard);
    /** "job-000012.s003.w1.json" */
    static std::string claimFileName(std::uint64_t id, int shard,
                                     const std::string &worker);
    /** "job-000012.json" */
    static std::string resultFileName(std::uint64_t id);
    /** "job-000012.manifest.json" */
    static std::string manifestFileName(std::uint64_t id);
    static std::string blackboxFileName(std::uint64_t id);
};

/** Parsed spooled-file name (job or claim). */
struct SpoolEntry
{
    std::uint64_t id = 0;
    int shard = 0;
    std::string worker; ///< Empty for a pending job file.
};

/** Parse a jobs/ or claims/ file name; false if it is not one. */
bool parseSpoolName(const std::string &name, SpoolEntry &out);

/**
 * Create (or re-create) the spool for @p spec under @p root: write
 * grid.json and one job file per point, assigned round-robin to
 * @p numShards shards. Any stale spool content under @p root is an
 * error — spooling is for fresh directories only.
 */
void spoolGrid(const GridSpec &spec, const std::string &root,
               int numShards);

/** One parsed ddsim-job-result-v2 record. */
struct JobRecord
{
    std::uint64_t id = 0;
    JobStatus status = JobStatus::Ok;
    int attempts = 1;
    ErrorClass error;       ///< Empty kind = never failed.
    std::string worker;     ///< Who produced the result.
    int shard = 0;          ///< The spool shard the job came from.
    double wallSeconds = 0; ///< Worker-side wall clock (provenance).
    /** CRC32 (8 hex chars) of the sibling manifest file's bytes;
     *  empty for quarantined points, which have no manifest. */
    std::string manifestCrc;
};

/**
 * Parse one result record, verifying its schema and CRC32 seal.
 * @throws CorruptArtifactError when the file fails verification.
 */
JobRecord jobRecordFromFile(const std::string &path);

/** One in-flight claim, as a spool scan saw it. */
struct ClaimInfo
{
    std::uint64_t id = 0;
    int shard = 0;
    std::string worker;
    pid_t pid = 0;            ///< 0 until the lease document lands.
    double heartbeatAge = -1; ///< Claim mtime age in seconds (-1 n/a).
    double jobAge = -1;       ///< Seconds since acquisition (-1 n/a).
};

/** What a spool scan found. */
struct SpoolStatus
{
    std::size_t total = 0;       ///< Grid points (from grid.json).
    std::size_t pending = 0;     ///< Job files awaiting a claim.
    std::size_t claimed = 0;     ///< Claims without a result yet.
    std::size_t ok = 0;
    std::size_t recovered = 0;
    std::size_t quarantined = 0;
    /** Results whose record or manifest failed CRC verification. */
    std::size_t corrupt = 0;
    int shards = 1;              ///< Distinct shard tags spooled.
    /** Lease state per in-flight claim (ddsweep status shows it). */
    std::vector<ClaimInfo> leases;

    std::size_t done() const { return ok + recovered + quarantined; }
    bool complete() const { return done() == total; }
};

SpoolStatus scanSpool(const std::string &root);

/**
 * Verify every checksummed artifact in the spool: result records
 * against their CRC32 seal, manifests against the CRC32 their record
 * promised, pending job specs against theirs. Damaged artifacts are
 * moved to corrupt/ (so the point re-runs on resume) and counted.
 * Run only while no worker is active.
 * @return the number of artifacts quarantined.
 */
std::size_t verifySpoolIntegrity(const std::string &root);

/**
 * Resume bookkeeping (run only while no worker is active): every grid
 * point without a result — including points stranded in claims/ by
 * dead workers, points whose job file vanished mid-spool, and (when
 * @p retryQuarantined) points previously quarantined — gets a fresh
 * job file; stale claims and retried quarantine records are removed.
 * @return the number of points requeued.
 */
std::size_t requeueIncomplete(const std::string &root,
                              bool retryQuarantined);

/** Knobs for one worker's claim-run loop. */
struct WorkerOptions
{
    std::string workerId = "w0"; ///< Unique; no '.', '/' or spaces.
    /** Preferred shard; -1 = no preference (pure stealing). */
    int shard = -1;
    RetryPolicy retry;
    /** Per-job run guards (0 = unlimited). */
    std::uint64_t cycleBudget = 0;
    double wallBudget = 0.0;
    /** Byte budget for the worker's shared trace cache (LRU eviction;
     *  0 = unlimited). See TraceCache::setByteBudget. */
    std::size_t traceCacheBytes = 0;
    /** Stop after this many jobs (0 = drain the spool). Tests use
     *  this to interrupt a farm at a known point. */
    std::size_t maxJobs = 0;
    /** Exit before the next claim if our parent is no longer this
     *  pid (the supervisor died); 0 disables the check. */
    pid_t exitIfReparented = 0;
    /** Lease interval the supervisor enforces. When > 0, a heartbeat
     *  thread refreshes the mtime of every held claim at a quarter of
     *  this period so the lease never goes stale while the worker is
     *  alive. 0 = no heartbeat (single-process and test use). */
    double leaseSecs = 0.0;
    /** Install a SIGTERM handler that finishes the in-flight point,
     *  persists its result, and exits cleanly instead of dying with a
     *  stranded claim. Only the ddsweep worker entry point sets this —
     *  library embedders keep their own signal disposition. */
    bool gracefulDrain = false;
    /** Test hook: SIGSTOP ourselves right after writing the first
     *  lease document, simulating a wedged (not dead) worker whose
     *  heartbeat stops. The lease-expiry smoke test uses this. */
    bool stallAfterFirstClaim = false;
};

/**
 * The worker: claim spooled jobs (own shard first, then steal), run
 * each through sim::runJob (SweepRunner's retry/quarantine policy),
 * write the manifest and result record atomically, and loop until the
 * spool offers nothing claimable. Traces and programs are cached per
 * worker process, so a worker amortizes functional execution across
 * every grid point of a program exactly like SweepRunner does.
 *
 * Per-job failures never propagate — they become quarantined result
 * records; only spool-level I/O failures raise.
 *
 * @return the number of jobs this worker completed.
 */
std::size_t runWorker(const std::string &root,
                      const WorkerOptions &opts);

/**
 * Merge a complete spool into (a) @p mergedPath — a
 * ddsim-sweep-manifest-v1 document byte-identical to what runSerial
 * over the same grid would produce, and (b) @p farmManifestPath — a
 * ddsim-farm-manifest-v1 document recording shard/worker provenance
 * per job (empty path = skip). Every record and manifest is
 * CRC-verified before splicing; damaged artifacts are moved to
 * corrupt/ and CorruptArtifactError raised (resume the spool to re-run
 * those points). Raises FatalError when any grid point lacks a result.
 */
void mergeSpool(const std::string &root, const std::string &mergedPath,
                const std::string &farmManifestPath);

/** Supervisor policy. */
struct SupervisorOptions
{
    /** The ddsweep binary to exec in worker mode. */
    std::string exePath;
    int workers = 2;
    /** Total worker respawns allowed across the farm. */
    int respawnLimit = 8;
    /** Crashes at one grid point before it is crash-quarantined. */
    int crashQuarantineAfter = 2;
    /** Lease interval: a claim whose heartbeat mtime is older than
     *  this belongs to a wedged worker — the worker is SIGKILLed and
     *  the point reclaimed (crash-quarantined after
     *  crashQuarantineAfter losses). 0 disables lease expiry. Workers
     *  must be passed the same value (--lease-secs) so they heartbeat
     *  faster than the supervisor expires. */
    double leaseSecs = 0.0;
    /** Per-job wall-clock watchdog: a claim held longer than this is
     *  a hung job — the worker is SIGKILLed and the point quarantined
     *  with a "hung" error. 0 disables the watchdog. */
    double jobWallSecs = 0.0;
    /** Extra argv forwarded verbatim to every worker (budgets,
     *  fault-injection flags, ...). */
    std::vector<std::string> workerArgs;
};

/**
 * Drive worker processes over the spool until it is complete: spawn
 * @p opts.workers workers (one preferred shard each), respawn workers
 * that die abnormally, requeue the claims a dead worker stranded, and
 * crash-quarantine any point that keeps killing its workers. Raises
 * FatalError if the farm cannot complete within the respawn budget.
 */
SpoolStatus superviseFarm(const std::string &root,
                          const SupervisorOptions &opts);

/**
 * The uninterrupted single-process reference and the one in-process
 * grid path: run @p spec through one SweepRunner (canonical manifests,
 * shared traces) and, when @p mergedPath is non-empty, write the sweep
 * manifest there. Every bench's grid (bench::runGrid) and `ddsweep
 * serial` run here, and each point goes through the GridJob ->
 * SweepJob mapping farm workers use. So a bench's --manifest, `ddsweep
 * serial` on its --emit-grid and a farm merge of it are one document,
 * byte for byte.
 */
SweepOutcome runSerial(const GridSpec &spec, unsigned workers,
                       const RetryPolicy &retry,
                       std::uint64_t cycleBudget, double wallBudget,
                       const std::string &mergedPath,
                       std::size_t traceCacheBytes = 0);

} // namespace ddsim::sim::farm

#endif // DDSIM_SIM_FARM_HH_
