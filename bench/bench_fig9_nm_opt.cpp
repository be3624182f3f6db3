/**
 * @file
 * Figure 9: performance of (N+M) configurations with both proposed
 * optimizations (fast data forwarding + two-way access combining),
 * relative to (2+0).
 *
 * Paper: compared with Figure 7, the (N+1) configurations improve
 * noticeably; (N+2) is comparable to or better than the conventional
 * (N+2ports) designs.
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
    banner("Figure 9: optimized (N+M) performance relative to (2+0)",
           "with fast forwarding + 2-way combining the (N+1) dip of "
           "Fig. 7 largely disappears");

    const int ns[] = {2, 3, 4};
    const int ms[] = {0, 1, 2, 3, 16};
    std::vector<std::vector<std::vector<double>>> rel(
        3, std::vector<std::vector<double>>(5));

    sim::Table perProg({"program", "(2+1)", "(2+2)", "(3+1)", "(3+2)",
                        "(4+1)", "(4+2)"});

    std::vector<sim::GridJob> jobs;
    for (const auto *info : opts.programs) {
        jobs.push_back(opts.job(*info, config::baseline(2)));
        for (int n : ns)
            for (int m : ms)
                jobs.push_back(opts.job(
                    *info, m == 0 ? config::baseline(n)
                                  : config::decoupledOptimized(n, m)));
    }
    std::vector<sim::SimResult> results =
        runGrid(opts, std::move(jobs), "Figure 9 (N+M) optimized sweep");

    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        sim::SimResult base = results[k++];
        std::vector<std::string> row{info->paperName};
        for (int ni = 0; ni < 3; ++ni) {
            for (int mi = 0; mi < 5; ++mi) {
                sim::SimResult r = results[k++];
                double relative = r.ipc / base.ipc;
                rel[static_cast<std::size_t>(ni)]
                   [static_cast<std::size_t>(mi)]
                       .push_back(relative);
                if (ms[mi] == 1 || ms[mi] == 2)
                    row.push_back(sim::Table::num(relative, 3));
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
