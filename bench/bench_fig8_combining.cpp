/**
 * @file
 * Figure 8: effect of access combining under the (3+1) and (3+2)
 * configurations, for combining degrees 1 (off), 2 and 4.
 *
 * Paper: two-way combining gains ~8% under (3+1) and ~2% under
 * (3+2) on average; 130.li and 147.vortex gain 16% and 26% under
 * (3+1), vortex still >12% under (3+2).
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
    banner("Figure 8: access combining speedup over no combining",
           "2-way: ~8% under (3+1), ~2% under (3+2); li/vortex gain "
           "16%/26% under (3+1)");

    sim::Table table({"program", "(3+1) 2-way", "(3+1) 4-way",
                      "(3+2) 2-way", "(3+2) 4-way"});
    std::vector<double> g31x2, g32x2;

    std::vector<sim::GridJob> jobs;
    for (const auto *info : opts.programs) {
        for (int lvcPorts : {1, 2}) {
            jobs.push_back(opts.job(*info, config::decoupled(3, lvcPorts)));
            for (int degree : {2, 4}) {
                config::MachineConfig cfg =
                    config::decoupled(3, lvcPorts);
                cfg.combining = degree;
                jobs.push_back(opts.job(*info, cfg));
            }
        }
    }
    std::vector<sim::SimResult> results =
        runGrid(opts, std::move(jobs), "Figure 8 combining sweep");

    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        std::vector<std::string> row{info->paperName};
        for (int lvcPorts : {1, 2}) {
            sim::SimResult off = results[k++];
            for (int degree : {2, 4}) {
                sim::SimResult on = results[k++];
                double speedup = on.ipc / off.ipc;
                row.push_back(sim::Table::pct(speedup - 1.0, 1));
                if (degree == 2 && lvcPorts == 1)
                    g31x2.push_back(speedup);
                if (degree == 2 && lvcPorts == 2)
                    g32x2.push_back(speedup);
            }
        }
        table.addRow(row);
    }
    table.addRow({"geomean", sim::Table::pct(geomean(g31x2) - 1, 1),
                  "", sim::Table::pct(geomean(g32x2) - 1, 1), ""});
    table.print(std::cout);

    std::printf("\nMeasured: 2-way combining gains %.1f%% under "
                "(3+1) and %.1f%% under (3+2) on average (paper: ~8%% "
                "and ~2%%)\n",
                (geomean(g31x2) - 1) * 100,
                (geomean(g32x2) - 1) * 100);
    return 0;
}
