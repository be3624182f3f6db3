/**
 * @file
 * Figure 7: performance of (N+M) configurations (no LVAQ
 * optimizations), relative to (2+0).
 *
 * Paper: adding a one-port LVC degrades performance (load imbalance);
 * a second port restores it and gains ~1-10% over (N+0); more than
 * three LVC ports add almost nothing.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "config/presets.hh"

using namespace ddsim;
using namespace ddsim::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    banner("Figure 7: (N+M) performance relative to (2+0), "
           "no optimizations",
           "(N+1) dips below (N+0); (N+2) restores and gains 1-10%; "
           ">=3 LVC ports ~ unlimited");

    const int ns[] = {2, 3, 4};
    const int ms[] = {0, 1, 2, 3, 16};

    // Submit the whole grid (per program: the (2+0) base plus the
    // 3x5 (N+M) matrix) and collect in submission order.
    std::vector<sim::GridJob> jobs;
    for (const auto *info : opts.programs) {
        jobs.push_back(opts.job(*info, config::baseline(2)));
        for (int n : ns)
            for (int m : ms)
                jobs.push_back(opts.job(
                    *info, m == 0 ? config::baseline(n)
                                  : config::decoupled(n, m)));
    }
    std::vector<sim::SimResult> results =
        runGrid(opts, std::move(jobs), "Figure 7 (N+M) sweep");

    // Collect per-program relative performance, then print the
    // cross-program average matrix (as the paper's figure plots).
    std::vector<std::vector<std::vector<double>>> rel(
        3, std::vector<std::vector<double>>(5));

    sim::Table perProg({"program", "(2+0)", "(2+1)", "(2+2)", "(3+0)",
                        "(3+1)", "(3+2)", "(4+0)", "(4+1)", "(4+2)"});

    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        sim::SimResult base = results[k++];
        std::vector<std::string> row{info->paperName};
        for (int ni = 0; ni < 3; ++ni) {
            for (int mi = 0; mi < 5; ++mi) {
                sim::SimResult r = results[k++];
                double relative = r.ipc / base.ipc;
                // Quarantined points are holes, not zeros: marked in
                // the table and excluded from the averages instead of
                // dragging them toward 0/NaN.
                if (!r.quarantined && !base.quarantined)
                    rel[static_cast<std::size_t>(ni)]
                       [static_cast<std::size_t>(mi)]
                           .push_back(relative);
                if (ms[mi] <= 2)
                    row.push_back(base.quarantined
                                      ? std::string(
                                            sim::Table::kQuarantined)
                                      : sim::Table::cell(r, relative,
                                                         3));
            }
        }
        perProg.addRow(row);
    }
    perProg.print(std::cout);

    std::printf("\nCross-program average (relative to (2+0)):\n\n");
    sim::Table avg({"config", "M=0", "M=1", "M=2", "M=3", "M=16"});
    for (int ni = 0; ni < 3; ++ni) {
        std::vector<std::string> row{"N=" + std::to_string(ns[ni])};
        for (int mi = 0; mi < 5; ++mi)
            row.push_back(sim::Table::num(
                geomean(rel[static_cast<std::size_t>(ni)]
                           [static_cast<std::size_t>(mi)]),
                3));
        avg.addRow(row);
    }
    avg.print(std::cout);
    return 0;
}
