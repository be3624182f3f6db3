/**
 * @file
 * MachineConfig: every knob of the simulated machine, defaulted to the
 * paper's Table 1 base model. Presets in config/presets.hh build the
 * "(N+M)" configurations used throughout the evaluation.
 */

#ifndef DDSIM_CONFIG_MACHINE_CONFIG_HH_
#define DDSIM_CONFIG_MACHINE_CONFIG_HH_

#include <cstdint>
#include <string>

#include "util/types.hh"

namespace ddsim::config {

/** Geometry and timing of one cache. */
struct CacheParams
{
    std::uint32_t sizeBytes = 0;
    std::uint32_t assoc = 1;
    std::uint32_t lineBytes = 32;
    Cycle hitLatency = 1;
    int ports = 1;
    /**
     * 0 = ideal multi-porting (the paper's footnote 8: any N accesses
     * per cycle). A power of two selects the interleaved-banks model
     * instead: single-ported banks chosen by line address, so
     * same-bank accesses conflict — the realistic technique whose
     * drawbacks (Section 1) motivate data decoupling.
     */
    int banks = 0;
    /** Outstanding-miss capacity (the caches are lockup-free). */
    int mshrs = 32;

    std::uint32_t numSets() const
    {
        return sizeBytes / (assoc * lineBytes);
    }
};

/** How memory instructions are classified into local / non-local. */
enum class ClassifierKind : std::uint8_t
{
    None,       ///< Everything goes to the LSQ (no decoupling).
    Annotation, ///< Trust the compiler's per-instruction local bit.
    SpBase,     ///< Hardware heuristic: base register is sp or fp.
    Oracle,     ///< Perfect: actual effective address in stack region.
    Predictor,  ///< Annotation + 1-bit region predictor w/ recovery.
    Replicate,  ///< Paper footnote 3: insert every memory access into
                ///< both queues and kill the wrong copy when the
                ///< address resolves — no prediction, no recovery,
                ///< at the cost of double queue occupancy.
    StaticHybrid, ///< ddlint verdict table: decided instructions
                  ///< steer statically; only Ambiguous ones consult
                  ///< the region predictor (with recovery).
};

const char *classifierName(ClassifierKind kind);

/**
 * Parse a classifier name as classifierName spells it. Unknown names
 * raise ConfigError("classifier", ...) with a did-you-mean suggestion
 * when one is close enough.
 */
ClassifierKind classifierFromName(const std::string &name);

/** Complete machine description. Defaults = Table 1. */
struct MachineConfig
{
    // ---- Core ----
    int fetchWidth = 16;
    int issueWidth = 16;
    int commitWidth = 16;
    int robSize = 128;
    int lsqSize = 64;
    int lvaqSize = 64;

    // ---- Functional units (Table 1) ----
    int numIntAlu = 16;
    int numFpAlu = 16;
    int numIntMultDiv = 4;
    int numFpMultDiv = 4;

    // ---- Memory hierarchy ----
    /** L1 data cache: 32 KB 2-way, 2-cycle hit. Ports = the paper's N. */
    CacheParams l1{32 * 1024, 2, 32, 2, 4};
    /** LVC: 2 KB direct-mapped, 1-cycle hit. Ports = the paper's M. */
    CacheParams lvc{2 * 1024, 1, 32, 1, 2};
    bool lvcEnabled = false;
    /** L2: 512 KB 4-way, 12-cycle. Shared by L1 and LVC. */
    CacheParams l2{512 * 1024, 4, 32, 12, 16};
    /** Main memory: 50 cycles, fully interleaved (no contention). */
    Cycle memLatency = 50;

    // ---- Decoupling (the paper's contribution) ----
    ClassifierKind classifier = ClassifierKind::None;
    /** Fast data forwarding in the LVAQ (Section 2.2.2). */
    bool fastForward = false;
    /**
     * Access-combining degree: an LVC port may merge up to this many
     * consecutive same-line LVAQ accesses. 1 disables combining.
     */
    int combining = 1;
    /** Store-to-load forwarding latency inside a queue (Section 3.1). */
    Cycle forwardLatency = 1;
    /** Pipeline refill penalty for a classifier misprediction. */
    Cycle mispredictPenalty = 8;

    /** "(N+M)" notation string, e.g. "(3+2)". */
    std::string notation() const;
    /** Longer human-readable description. */
    std::string describe() const;

    /** Sanity-check all parameters; raises ConfigError (naming the
     *  offending field) on degenerate values. */
    void validate() const;
};

} // namespace ddsim::config

#endif // DDSIM_CONFIG_MACHINE_CONFIG_HH_
