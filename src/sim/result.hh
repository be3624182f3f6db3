/**
 * @file
 * SimResult: a plain snapshot of everything a bench or test wants to
 * know after one simulation run.
 */

#ifndef DDSIM_SIM_RESULT_HH_
#define DDSIM_SIM_RESULT_HH_

#include <cstdint>
#include <string>

namespace ddsim::sim {

/**
 * How a sampled (SMARTS-style) run arrived at its estimate: the plan
 * actually used, how much of the stream ran in detail, and the
 * statistical confidence of the IPC estimate.
 */
struct SamplingStats
{
    bool active = false;          ///< This result is an estimate.
    std::uint64_t period = 0;     ///< Instructions per sampling unit.
    std::uint64_t detail = 0;     ///< Measured window length.
    std::uint64_t warmup = 0;     ///< Detailed warm-up before each window.
    std::uint64_t windows = 0;    ///< Measured windows taken.
    std::uint64_t detailInsts = 0; ///< Instructions measured in detail.
    std::uint64_t detailCycles = 0; ///< Cycles spent in measured windows.
    /**
     * 95% confidence half-width of the reported IPC, which is the
     * ratio estimator detailInsts / detailCycles: computed from
     * per-window CPI residuals and mapped to IPC by the delta method.
     * 0 with fewer than two windows.
     */
    double ipcCi95 = 0.0;
};

/** Outcome of one (program, configuration) simulation. */
struct SimResult
{
    std::string program;
    std::string notation;       ///< "(N+M)" machine notation.

    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    double ipc = 0.0;

    // Stream characterization (Fig. 2 / Fig. 3 inputs).
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t localLoads = 0;
    std::uint64_t localStores = 0;
    double meanDynFrameWords = 0.0;
    double meanStaticFrameWords = 0.0;

    // Caches.
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    double l1MissRate = 0.0;
    std::uint64_t lvcAccesses = 0;
    std::uint64_t lvcMisses = 0;
    double lvcMissRate = 0.0;
    std::uint64_t l2Accesses = 0;   ///< L1/LVC <-> L2 bus traffic.
    std::uint64_t memAccesses = 0;

    // Queues.
    std::uint64_t lsqForwards = 0;
    std::uint64_t lvaqForwards = 0;
    std::uint64_t lvaqFastForwards = 0;
    std::uint64_t lvaqCombined = 0;
    std::uint64_t lvaqLoads = 0;
    double lvaqSatisfiedFrac = 0.0; ///< Loads satisfied in-queue.

    // Classification.
    double classifierAccuracy = 1.0;
    std::uint64_t missteered = 0;
    std::uint64_t classified = 0;    ///< Accesses seen at dispatch.
    std::uint64_t toLvaq = 0;        ///< ...steered to the LVAQ.
    /** Decided by the static verdict table (StaticHybrid only). */
    std::uint64_t staticDecided = 0;

    /** Full stats dump (filled only when requested). */
    std::string statsText;

    /**
     * Complete run-manifest JSON (filled only when
     * RunOptions::captureManifest is set). SweepRunner splices these
     * into its sweep-level aggregate manifest.
     */
    std::string manifestJson;

    /**
     * This slot is a quarantined-job placeholder, not a real run: the
     * sweep supervisor could not produce a result for this grid point
     * and every stat above is a meaningless zero. Downstream table and
     * CSV code must render such slots with an explicit degraded marker
     * instead of passing the zeros off as data.
     */
    bool quarantined = false;

    /**
     * Sampling provenance: default-inactive for the exact engines;
     * active (with window counts and the IPC confidence interval)
     * when the sampled engine produced this result. cycles/ipc above
     * are then estimates, committed is the exact stream length.
     */
    SamplingStats sampling;

    /** One-line summary for logs. */
    std::string summary() const;
};

/** Speedup of @p a over @p b (by IPC). */
double speedup(const SimResult &a, const SimResult &b);

} // namespace ddsim::sim

#endif // DDSIM_SIM_RESULT_HH_
