/**
 * @file
 * Figure 6 + Section 4.2.1: LVC miss rate as its size varies from
 * 0.5 KB to 4 KB (direct-mapped, 4 ports), and the change in L2 bus
 * traffic when a 2 KB LVC is added.
 *
 * Paper: a 2 KB LVC achieves >99% hit rate for all programs except
 * 126.gcc; 4 KB reaches ~99.9% on average. The LVC cut L2 traffic
 * noticeably for li (~24%) and vortex (~7%) and slightly increased it
 * for gcc.
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
    banner("Figure 6: LVC miss rate vs size (direct-mapped, 4-port)",
           "2 KB hits >99% for all but gcc; 4 KB ~99.9%; LVC cuts L2 "
           "traffic for li (~24%) and vortex (~7%)");

    const std::uint32_t sizes[] = {512, 1024, 2048, 4096};
    sim::Table table({"program", "0.5KB", "1KB", "2KB", "4KB",
                      "L2 traffic vs (3+0)"});
    std::vector<double> missAt2k, missAt4k;

    std::vector<sim::GridJob> jobs;
    for (const auto *info : opts.programs) {
        jobs.push_back(opts.job(*info, config::baseline(3)));
        for (std::uint32_t size : sizes) {
            config::MachineConfig cfg = config::decoupled(3, 4);
            cfg.lvc.sizeBytes = size;
            jobs.push_back(opts.job(*info, cfg));
        }
    }
    std::vector<sim::SimResult> results =
        runGrid(opts, std::move(jobs), "Figure 6 LVC size sweep");

    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        sim::SimResult base = results[k++];

        std::vector<std::string> row{info->paperName};
        std::uint64_t l2With2k = 0;
        for (std::uint32_t size : sizes) {
            sim::SimResult r = results[k++];
            row.push_back(sim::Table::pct(r.lvcMissRate, 2));
            if (size == 2048) {
                missAt2k.push_back(r.lvcMissRate);
                l2With2k = r.l2Accesses;
            }
            if (size == 4096)
                missAt4k.push_back(r.lvcMissRate);
        }
        double delta =
            base.l2Accesses == 0
                ? 0.0
                : (static_cast<double>(l2With2k) /
                       static_cast<double>(base.l2Accesses) -
                   1.0);
        row.push_back(sim::Table::pct(delta, 1));
        table.addRow(row);
    }
    table.print(std::cout);
    std::printf("\nMeasured: mean miss rate %.2f%% at 2 KB, %.2f%% "
                "at 4 KB (paper: <1%% and ~0.1%%)\n",
                mean(missAt2k) * 100, mean(missAt4k) * 100);
    return 0;
}
