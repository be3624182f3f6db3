/**
 * @file
 * Table-3-style study of the static partitioning pipeline: how close
 * does a purely static (ddlint-derived) classification get to the
 * oracle, and what does the hybrid static+predictor scheme buy back?
 * Under optimized (3+2), per workload:
 *   oracle       - perfect separation (evaluation upper bound)
 *   spbase       - hardware heuristic: base register is sp/fp
 *   predictor    - annotation hint + 1-bit last-region table
 *   static-safe  - Annotation over hints rewritten with HintPolicy::
 *                  Safe (Ambiguous -> L1 path; never mispartitions
 *                  a non-local access into the LVAQ)
 *   static-spec  - Annotation over HintPolicy::Speculative hints
 *                  (Ambiguous -> LVAQ; leans on recovery)
 *   hybrid       - ClassifierKind::StaticHybrid: decided verdicts
 *                  steer statically, Ambiguous ones consult the
 *                  region predictor (with recovery)
 *
 * Reports LVAQ steering coverage (fraction of classified accesses
 * sent to the LVAQ), the mispartition rate, the statically-decided
 * fraction, and the IPC delta against the oracle. Paper: compiler
 * annotation plus the 1-bit predictor reaches ~99.9% accuracy, so
 * static schemes should land within noise of the oracle.
 */

#include <cstdio>
#include <iostream>
#include <map>

#include "analysis/annotate.hh"
#include "bench_common.hh"
#include "config/presets.hh"

using namespace ddsim;
using namespace ddsim::bench;

namespace {

struct Policy
{
    const char *label;
    config::ClassifierKind kind;
    /** HintPolicy name the program is annotated with; "" = stock. */
    const char *annotate;
};

constexpr Policy kPolicies[] = {
    {"oracle", config::ClassifierKind::Oracle, ""},
    {"spbase", config::ClassifierKind::SpBase, ""},
    {"predictor", config::ClassifierKind::Predictor, ""},
    {"static-safe", config::ClassifierKind::Annotation, "safe"},
    {"static-spec", config::ClassifierKind::Annotation, "speculative"},
    {"hybrid", config::ClassifierKind::StaticHybrid, "hybrid"},
};

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    banner("Static partitioning: ddlint verdicts vs dynamic schemes "
           "under optimized (3+2)",
           "static classification should land within noise of the "
           "oracle (paper: ~99.9% accuracy from annotation + 1-bit "
           "predictor)");

    // The grid annotates each policy's program itself (GridJob::
    // annotate); the hybrid pass is rerun here only for its stats,
    // which the static-coverage report below shows.
    std::vector<sim::GridJob> jobs;
    std::map<std::string, analysis::AnnotateStats> passStats;
    for (const auto *info : opts.programs) {
        analysis::annotateProgram(*buildProgramShared(*info, opts),
                                  analysis::HintPolicy::Hybrid,
                                  &passStats[info->name]);
        for (const Policy &p : kPolicies) {
            config::MachineConfig cfg = config::decoupledOptimized(3, 2);
            cfg.classifier = p.kind;
            sim::GridJob job = opts.job(*info, cfg);
            job.annotate = p.annotate;
            jobs.push_back(std::move(job));
        }
    }

    std::vector<sim::SimResult> results =
        runGrid(opts, std::move(jobs), "Static classifier sweep");

    sim::Table pass({"program", "mem insts", "hinted", "cleared",
                     "ambiguous", "bits flipped"});
    for (const auto *info : opts.programs) {
        const analysis::AnnotateStats &st = passStats.at(info->name);
        pass.addRow({info->paperName, std::to_string(st.memInsts),
                     std::to_string(st.hinted),
                     std::to_string(st.cleared),
                     std::to_string(st.ambiguous),
                     std::to_string(st.changed)});
    }
    sim::printHeading(std::cout, "Static pass coverage",
                 "ddlint verdicts burned into the hint bits "
                 "(hybrid policy; ambiguous = left to the hardware)");
    pass.print(std::cout);

    sim::Table table({"program", "policy", "IPC", "vs oracle",
                      "lvaq steer", "mispartition", "static decided"});
    std::map<std::string, std::vector<double>> deltas;
    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        double oracleIpc = 0.0;
        for (const Policy &p : kPolicies) {
            const sim::SimResult &r = results[k++];
            if (p.kind == config::ClassifierKind::Oracle)
                oracleIpc = r.ipc;

            std::vector<std::string> row{info->paperName, p.label};
            row.push_back(sim::Table::cell(r, r.ipc, 3));
            // The oracle's delta against itself is structural, not a
            // measurement; same for its mispartition rate (it peeks
            // at the resolved address, so it cannot missteer).
            bool isOracle = p.kind == config::ClassifierKind::Oracle;
            if (isOracle || r.quarantined || oracleIpc <= 0)
                row.push_back(isOracle ? sim::Table::kNotApplicable
                                       : sim::Table::kQuarantined);
            else {
                double delta = r.ipc / oracleIpc - 1.0;
                row.push_back(sim::Table::pct(delta, 2));
                deltas[p.label].push_back(r.ipc / oracleIpc);
            }
            double classified =
                r.classified ? static_cast<double>(r.classified) : 1.0;
            row.push_back(sim::Table::cell(
                r, static_cast<double>(r.toLvaq) / classified * 100,
                1));
            row.push_back(
                isOracle ? sim::Table::kNotApplicable
                         : sim::Table::cell(
                               r,
                               static_cast<double>(r.missteered) /
                                   classified * 100,
                               2));
            row.push_back(
                p.kind == config::ClassifierKind::StaticHybrid
                    ? sim::Table::cell(
                          r,
                          static_cast<double>(r.staticDecided) /
                              classified * 100,
                          1)
                    : sim::Table::kNotApplicable);
            table.addRow(std::move(row));
        }
    }
    sim::printHeading(std::cout, "Steering policies",
                 "lvaq steer / mispartition / static decided are % of "
                 "classified accesses; vs oracle is the IPC delta");
    table.print(std::cout);

    std::printf("\ngeomean IPC vs oracle:");
    for (const Policy &p : kPolicies) {
        if (p.kind == config::ClassifierKind::Oracle)
            continue;
        auto it = deltas.find(p.label);
        if (it == deltas.end() || it->second.empty())
            std::printf("  %s %s", p.label, sim::Table::kQuarantined);
        else
            std::printf("  %s %.3f", p.label, geomean(it->second));
    }
    std::printf("\n");
    return 0;
}
