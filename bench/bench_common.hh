/**
 * @file
 * Shared harness for the bench binaries. Every bench regenerates one
 * table or figure of the paper: it selects workloads, describes its
 * grid of program x machine points as sim::GridJobs (Options::job),
 * runs the grid through sim::farm::runSerial — the path `ddsweep
 * serial` takes — and prints the same rows/series the paper reports,
 * plus a note stating what shape the paper observed.
 *
 * Common flags (all optional):
 *   --scale=<f>      work multiplier (default 1.0 ~ 300 K insts/run)
 *   --programs=a,b   comma-separated subset (short or paper names)
 *   --int            integer programs only
 *   --fp             floating-point programs only
 *   --jobs=<n>       worker threads for the sweep (default: one per
 *                    hardware thread; results are identical for any n)
 *   --manifest=<f>   write a sweep-level JSON manifest (per-run config,
 *                    stats and provenance) to <f> after the grid runs;
 *                    byte-identical to `ddsweep serial` on the spec
 *                    --emit-grid writes (docs/FARM.md)
 *   --emit-grid=<f>  write the exact job grid this invocation would
 *                    run as a portable ddsim-grid-v1 spec to <f> and
 *                    exit without simulating (the input of
 *                    tools/ddsweep; see docs/FARM.md)
 *   --cycle-budget=<n>  per-run simulated-cycle budget (0 = unlimited)
 *   --wall-budget=<s>   per-run wall-clock budget in seconds (0 = off)
 *   --engine=<e>     execution engine for every job: auto (default),
 *                    live, replay or sampled (SMARTS interval sampling;
 *                    IPC becomes an estimate with error bars)
 *   --trace-in=a,b   ingest ddsim-xtrace-v1 files as additional
 *                    programs: each trace joins the grid exactly like
 *                    a registry workload (replay/sampled engines,
 *                    --emit-grid, manifests), driven by its
 *                    recorded stream. Incompatible with --engine=live
 *                    (a trace has nothing to execute functionally)
 *                    and with benches that annotate their programs
 *                    (bench_static_classifier; the converter burned
 *                    the trace's hints, and the grid spec check
 *                    refuses such a grid before any job runs)
 *   --sample-period=<n> --sample-detail=<n> --sample-warmup=<n>
 *                    override the sampled engine's plan (defaults hold
 *                    every workload within 2% IPC error at --scale=1)
 *   --fail-fast      exit non-zero when any job was quarantined, once
 *                    the rest of the grid and the manifest are written
 *                    (default: report a degraded sweep and exit 0)
 *
 * Unrecognized "--option"s are fatal (see CliArgs::rejectUnknown);
 * wrappers that add their own keys can pass them after a bare "--".
 */

#ifndef DDSIM_BENCH_BENCH_COMMON_HH_
#define DDSIM_BENCH_BENCH_COMMON_HH_

#include <memory>
#include <string>
#include <vector>

#include "config/cli.hh"
#include "prog/program.hh"
#include "sim/grid_spec.hh"
#include "sim/runner.hh"
#include "sim/table.hh"
#include "vm/xtrace.hh"
#include "workloads/common.hh"

namespace ddsim::bench {

/**
 * One --trace-in input, presented to benches as a pseudo-workload:
 * `info` joins Options::programs like any registry entry (its factory
 * is null — buildProgramShared resolves it to the trace's embedded
 * program instead), and Options::job makes every grid point built
 * from it a trace_path point.
 */
struct TraceInput
{
    std::string path;              ///< The xtrace file.
    std::shared_ptr<const vm::ExternalTrace> trace;
    std::string name;              ///< Stable storage for info.name.
    std::string paper;             ///< Stable storage for info.paperName.
    workloads::WorkloadInfo info;
};

/** Parsed harness options. */
struct Options
{
    double scaleFactor = 1.0;
    /** Sweep worker threads (0 = one per hardware thread). */
    unsigned jobs = 0;
    /** Sweep manifest output path ("" = don't write one). */
    std::string manifestPath;
    /** Grid-spec export path ("" = run normally). When set, runGrid
     *  writes the ddsim-grid-v1 spec and exits instead of simulating. */
    std::string emitGridPath;
    /** Per-run cycle budget applied to every job (0 = unlimited). */
    std::uint64_t cycleBudget = 0;
    /** Per-run wall-clock budget in seconds (0 = unlimited). */
    double wallBudget = 0.0;
    /** Exit non-zero when any job was quarantined (after the grid
     *  and its manifest are written). */
    bool failFast = false;
    /** Execution engine applied to every job (--engine). */
    sim::Engine engine = sim::Engine::Auto;
    /** Sampled-engine plan (--sample-*; used when engine == Sampled). */
    sim::SamplingPlan sampling;
    std::vector<const workloads::WorkloadInfo *> programs;
    /**
     * Decoded --trace-in inputs. Their `info` members are what the
     * matching entries in `programs` point at, so the vector is fully
     * reserved up front and never reallocates.
     */
    std::vector<TraceInput> traceInputs;
    config::CliArgs args;

    Options(int argc, const char *const *argv);

    /** The TraceInput behind @p info, or nullptr for registry
     *  workloads. */
    const TraceInput *
    traceFor(const workloads::WorkloadInfo &info) const;

    /**
     * The grid point that runs @p info on @p cfg: the registry
     * workload at the harness-selected length (resolved scale and
     * default seed) or the --trace-in file behind it, under --engine
     * and, for the sampled engine, its plan.
     */
    sim::GridJob job(const workloads::WorkloadInfo &info,
                     const config::MachineConfig &cfg) const;
};

/**
 * Build the program a grid point of @p info runs (for a --trace-in
 * input, the trace's embedded program), for benches that read the
 * program itself rather than simulate it.
 */
std::shared_ptr<const prog::Program>
buildProgramShared(const workloads::WorkloadInfo &info,
                   const Options &opts);

/**
 * Run a grid and return the results in @p jobs order. Rejects
 * unrecognized CLI options first (every bench queries its flags
 * before building the grid), then numbers the jobs and validates the
 * spec. With --emit-grid=<f> it writes the spec and exits; otherwise
 * it runs the spec through sim::farm::runSerial on --jobs threads,
 * which writes the sweep manifest to --manifest=<f> under @p title.
 *
 * Failure isolation: a job that still fails after transient-error
 * retries is quarantined — its result slot is a flagged placeholder,
 * the quarantine is reported on stderr, and the sweep manifest is
 * marked "degraded". The rest of the grid always completes; only
 * --fail-fast then turns a degraded sweep into a non-zero exit.
 */
std::vector<sim::SimResult> runGrid(const Options &opts,
                                    std::vector<sim::GridJob> jobs,
                                    const std::string &title = "sweep");

/** Geometric mean (of speedups/ratios). */
double geomean(const std::vector<double> &values);

/** Arithmetic mean. */
double mean(const std::vector<double> &values);

/** Print the standard bench banner. */
void banner(const std::string &title, const std::string &paperShape);

} // namespace ddsim::bench

#endif // DDSIM_BENCH_BENCH_COMMON_HH_
