/**
 * @file
 * The static MISA program analyzer.
 *
 * Runs the abstract interpretation of value.hh over every function's
 * CFG to a fixpoint, then makes one reporting pass that (a) verifies
 * stack discipline — sp balanced on every return path, no access
 * below the live frame, frames reachable within the 15-bit offset
 * field (paper footnote 6), (b) classifies every memory instruction
 * as local / non-local / ambiguous (the static columns of Fig. 2/3),
 * and (c) cross-checks the classification against each instruction's
 * annotation bit (Section 2.2.3).
 *
 * Diagnostics catalogue (ids are stable; docs/ANALYSIS.md documents
 * each with an example):
 *
 *   error   sp-lost                     sp no longer sp-relative
 *   error   sp-unbalanced-return        jr ra with sp != entry sp
 *   error   sp-merge-mismatch           join of unequal sp depths
 *   error   access-below-frame          sp-relative access below the
 *                                       live frame's low edge
 *   error   annotation-local-but-nonlocal  !local proved wrong
 *   error   control-flow-out-of-text    branch/jump target outside text
 *   warning access-above-entry          sp-relative access at or above
 *                                       the caller's frame
 *   warning sp-inexact                  sp adjusted by a statically
 *                                       unknown amount (alloca-style
 *                                       dynamic frame); still
 *                                       stack-rooted
 *   warning annotation-missing-local    provably-local access lacking
 *                                       the annotation bit
 *   warning unresolved-indirect-jump    jalr / jr through non-ra
 *   note    frame-exceeds-offset-field  frame larger than the 15-bit
 *                                       offset field spans
 */

#ifndef DDSIM_ANALYSIS_ANALYZER_HH_
#define DDSIM_ANALYSIS_ANALYZER_HH_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/value.hh"
#include "isa/inst.hh"
#include "prog/program.hh"

namespace ddsim::analysis {

const char *verdictName(isa::Verdict v);

enum class Severity : std::uint8_t { Note, Warning, Error };

const char *severityName(Severity s);

/** One finding, anchored to an instruction. */
struct Diagnostic
{
    Severity severity = Severity::Note;
    std::string id;       ///< Catalogue id (kebab-case, stable).
    std::size_t instIdx = 0;
    std::string function; ///< Name of the enclosing function.
    std::string message;  ///< Human-readable, includes disassembly.
};

/** One statically classified memory instruction. */
struct MemAccess
{
    std::size_t instIdx = 0;
    isa::Verdict verdict = isa::Verdict::Ambiguous;
    bool load = false;          ///< Load if true, store otherwise.
    bool annotatedLocal = false;///< The instruction's localHint bit.
    /** Byte offset of the access from the entry sp, when exact. */
    std::int64_t spOffset = 0;
    bool spOffsetKnown = false;
};

/** Per-function results. */
struct FunctionInfo
{
    std::size_t entry = 0;
    std::string name;
    Cfg cfg;
    /** Max stack depth in words over all reachable points. */
    std::size_t frameWords = 0;
    /** False when sp tracking was lost somewhere in the function. */
    bool frameKnown = true;
    std::vector<MemAccess> accesses;
};

/** Local / non-local / ambiguous static instruction counts. */
struct Mix
{
    std::size_t local = 0;
    std::size_t nonLocal = 0;
    std::size_t ambiguous = 0;

    std::size_t total() const { return local + nonLocal + ambiguous; }
    void add(isa::Verdict v);
};

/** Whole-program analysis results. */
struct AnalysisResult
{
    std::string program;
    std::vector<FunctionInfo> functions;
    std::vector<Diagnostic> diagnostics;
    /**
     * Per-instruction verdicts, joined across functions when code is
     * shared: conflicting verdicts degrade to Ambiguous.
     */
    std::map<std::size_t, isa::Verdict> verdicts;
    Mix loads;
    Mix stores;

    std::size_t count(Severity s) const;
    std::size_t errors() const { return count(Severity::Error); }
    std::size_t warnings() const { return count(Severity::Warning); }
};

/** Analyze @p prog: dataflow fixpoint plus one reporting pass. */
AnalysisResult analyze(const prog::Program &prog);

} // namespace ddsim::analysis

#endif // DDSIM_ANALYSIS_ANALYZER_HH_
