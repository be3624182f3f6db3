/**
 * @file
 * Runner: the one-call top-level API — simulate a program on a machine
 * configuration and return a SimResult. This is the entry point the
 * examples and every bench binary use.
 */

#ifndef DDSIM_SIM_RUNNER_HH_
#define DDSIM_SIM_RUNNER_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/machine_config.hh"
#include "prog/program.hh"
#include "sim/result.hh"

namespace ddsim::vm {
class ExternalTrace;
class RecordedTrace;
}

namespace ddsim::sim {

/**
 * Which execution engine drives the run. All exact engines are
 * bit-identical to each other (pinned by the differential suite);
 * Sampled trades exactness for O(samples) detailed cycles.
 */
enum class Engine : std::uint8_t
{
    /** Replay when RunOptions::trace is set, otherwise live. */
    Auto,
    /** Functional execution feeding the pipeline directly. */
    Live,
    /** Replay a recorded trace (recording one first if needed). */
    Replay,
    /**
     * SMARTS-style interval sampling: functional fast-forward between
     * detailed windows per RunOptions::sampling. IPC/cycles are
     * estimates with a confidence interval (SimResult::sampling).
     */
    Sampled,
};

/** Canonical lowercase name ("auto", "live", ...). */
const char *engineName(Engine e);

/**
 * Parse an engine name as CLI input. Unknown names raise ConfigError
 * with a did-you-mean suggestion when one is close enough. The retired
 * "batched" engine parses as Replay, so grid specs and spools that
 * still name it keep loading (its results were bit-identical to
 * replay).
 */
Engine engineFromName(const std::string &name);

/**
 * The sampled engine's measurement plan: every @p period instructions,
 * warm the pipeline in detail for @p warmup instructions, then measure
 * a @p detail window; the remaining period - warmup - detail
 * instructions fast-forward functionally with cache/predictor warming
 * (stream stats stay exact, timing is skipped; the skip length is
 * jittered deterministically to decorrelate window placement from
 * loop periodicity). Defaults hold every workload's |ΔIPC| within 2%
 * of a full run at registry default scale (pinned by
 * tests/test_sampled.cpp); longer programs tolerate much sparser
 * plans — at fixed window count the speedup grows with program
 * length, which is the engine's whole point.
 */
struct SamplingPlan
{
    std::uint64_t period = 4096; ///< Instructions per sampling unit.
    std::uint64_t detail = 2560; ///< Measured window length.
    std::uint64_t warmup = 256;  ///< Detailed warm-up per window.

    /**
     * True when the plan can run: a non-zero period and detail window,
     * and warmup + detail within the period. Compared by subtraction:
     * the sum wraps for plans near UINT64_MAX and would wave through a
     * plan whose fast-forward length, period - warmup - detail,
     * underflows to an astronomically long skip.
     */
    bool valid() const
    {
        return period > 0 && detail > 0 && warmup <= period &&
               detail <= period - warmup;
    }

    bool operator==(const SamplingPlan &o) const
    {
        return period == o.period && detail == o.detail &&
               warmup == o.warmup;
    }
};

/** Options for one simulation run. */
struct RunOptions
{
    /** Stop fetching after this many instructions (0 = run to HALT). */
    std::uint64_t maxInsts = 0;
    /**
     * Warm up the machine for this many instructions before the
     * measurement starts: caches and queues keep their state but all
     * statistics are zeroed, so the reported IPC and miss rates
     * exclude the cold-start transient.
     */
    std::uint64_t warmupInsts = 0;
    /** Capture the full stats dump into SimResult::statsText. */
    bool captureStats = false;
    /**
     * Replay this pre-recorded dynamic trace instead of functionally
     * executing the program. Must have been recorded from the same
     * program object; the result is bit-identical to a live run (the
     * front end is configuration-oblivious), only faster. Sweeps use
     * this to pay the functional execution once per program instead
     * of once per grid point.
     */
    std::shared_ptr<const vm::RecordedTrace> trace;
    /**
     * Run an ingested external trace (vm::ExternalTrace) instead of a
     * registry workload. The runner derives everything from it: the
     * program and replay trace (so `trace` must be unset), the
     * static-classifier verdict table from the ingestion-time
     * annotation pass (replacing the ddlint analysis, which would see
     * only the reconstructed text), and a run.trace_source provenance
     * block in the manifest. Engine::Live is a ConfigError — there is
     * no functional semantics to execute, only the recorded stream;
     * Auto resolves to replay. Sampled works unchanged.
     */
    std::shared_ptr<const vm::ExternalTrace> externalTrace;
    /**
     * Execution engine (see Engine). Auto preserves the historical
     * behavior: replay when a trace is supplied, live otherwise.
     */
    Engine engine = Engine::Auto;
    /**
     * Sampled-engine plan; ignored by the exact engines. All-zero
     * disables sampling even under Engine::Sampled (ConfigError).
     */
    SamplingPlan sampling;

    // ---- Run guards (0 = unlimited) ----
    /**
     * Abort the run with BudgetExceededError once this many cycles
     * have been simulated (warmup included). The run loops tick every
     * cycle, so the error reports exactly maxCycles + 1. Runs that
     * finish within the budget are bit-identical to unbudgeted runs.
     */
    std::uint64_t maxCycles = 0;
    /**
     * Abort with BudgetExceededError once this much host wall-clock
     * time has elapsed (measured from the start of warmup).
     */
    double maxWallSeconds = 0.0;

    // ---- Observability (all off by default; timing-invisible) ----
    /** Write a JSON run manifest here ("" = none). */
    std::string manifestPath;
    /** Capture the manifest JSON into SimResult::manifestJson. */
    bool captureManifest = false;
    /**
     * Make the manifest a pure function of (program, config, options):
     * the host wall-clock is recorded as 0 so two identical runs emit
     * byte-identical manifests. The sweep farm sets this on every job
     * so a merged multi-process manifest can be compared bit-for-bit
     * against a single-process reference.
     */
    bool canonicalManifest = false;
    /** Free-form label recorded in the manifest and trace header. */
    std::string label;
    /** Write a binary pipeline lifecycle trace here ("" = none). */
    std::string tracePath;
    /**
     * Snapshot stats every this many committed instructions
     * (0 = sampling off). Samples cover the measured phase only —
     * the sampler attaches after warmup.
     */
    std::uint64_t sampleInterval = 0;
    /** Dump the samples here (.json = JSON, else CSV; "" = none). */
    std::string samplePath;
    /**
     * Comma-separated dotted-path prefixes selecting which stats the
     * sampler tracks ("cpu,l1d"); empty = the whole tree.
     */
    std::string sampleFilter;

    // ---- Fault tolerance ----
    /**
     * On any SimError during the run, write a "ddsim-blackbox-v1"
     * JSON crash report here before rethrowing ("" = none). Enables
     * the last-committed-instructions ring in the pipeline.
     */
    std::string blackboxPath;
    /**
     * After the pipeline trace is finalized, decode the whole file
     * back as a self-check; corruption (including injected
     * corruption) raises TraceCorruptError. No-op without tracePath.
     */
    bool verifyTrace = false;
};

/**
 * How many instructions a run fetches: @p opts.maxInsts measured
 * instructions past the warmup, or 0 (run to HALT) when maxInsts is 0.
 * A trace recorded for the run stops at the same point.
 */
inline std::uint64_t
fetchCap(const RunOptions &opts)
{
    return opts.maxInsts ? opts.maxInsts + opts.warmupInsts : 0;
}

/**
 * Simulate @p program on @p cfg to completion.
 *
 * Every failure raises a typed ddsim::SimError: ConfigError for a bad
 * configuration, ProgramError for a malformed program, DeadlockError
 * when the watchdog fires, BudgetExceededError when a guard trips,
 * IoError / TraceCorruptError from the observability outputs. All of
 * these derive std::runtime_error; no failure path aborts.
 */
SimResult run(const prog::Program &program,
              const config::MachineConfig &cfg,
              const RunOptions &opts = {});

/**
 * Simulate @p program under every configuration in @p cfgs: one run()
 * per configuration on the replay engine, all replaying ONE recorded
 * trace (opts.trace, the external trace, or a recording made here
 * once). Results come back in cfgs order, byte-identical to N
 * independent run() calls. Options that name an output file would be
 * overwritten by every point and raise ConfigError; opts.engine is
 * ignored; everything else applies to each point. The first SimError
 * aborts the column.
 */
std::vector<SimResult>
runBatch(const prog::Program &program,
         const std::vector<config::MachineConfig> &cfgs,
         const RunOptions &opts = {});

} // namespace ddsim::sim

#endif // DDSIM_SIM_RUNNER_HH_
