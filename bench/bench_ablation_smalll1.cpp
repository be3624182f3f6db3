/**
 * @file
 * Section 4.4 discussion: is a small (2 KB), fast (1-cycle) L1 data
 * cache a better answer to the bandwidth/latency problem than
 * decoupling? The paper's preliminary result: the higher miss rate of
 * the tiny L1 negates its latency advantage unless the L2 is
 * unrealistically fast (< 4 cycles).
 *
 * This bench sweeps the L2 latency and compares three machines at
 * equal port counts:
 *   (a) conventional 32 KB / 2-cycle L1, 4 ports        -- "(4+0)"
 *   (b) tiny 2 KB / 1-cycle L1, 4 ports                 -- "small-L1"
 *   (c) decoupled 32 KB L1 (2 ports) + 2 KB LVC (2)     -- "(2+2)opt"
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
    banner("Ablation (Section 4.4): tiny fast L1 vs decoupling, "
           "IPC relative to (4+0) at each L2 latency",
           "the 2 KB L1's misses negate its 1-cycle hits unless L2 "
           "latency < ~4 cycles");

    const Cycle l2Lats[] = {2, 4, 8, 12};
    sim::Table table({"program", "L2=2: small/dec", "L2=4: small/dec",
                      "L2=8: small/dec", "L2=12: small/dec"});
    std::vector<std::vector<double>> smallRel(4), decRel(4);

    std::vector<sim::GridJob> jobs;
    for (const auto *info : opts.programs) {
        for (int i = 0; i < 4; ++i) {
            config::MachineConfig conv = config::baseline(4);
            conv.l2.hitLatency = l2Lats[i];
            jobs.push_back(opts.job(*info, conv));

            config::MachineConfig tiny = config::baseline(4);
            tiny.l2.hitLatency = l2Lats[i];
            tiny.l1.sizeBytes = 2048;
            tiny.l1.assoc = 1;
            tiny.l1.hitLatency = 1;
            jobs.push_back(opts.job(*info, tiny));

            config::MachineConfig dec =
                config::decoupledOptimized(2, 2);
            dec.l2.hitLatency = l2Lats[i];
            jobs.push_back(opts.job(*info, dec));
        }
    }
    std::vector<sim::SimResult> results =
        runGrid(opts, std::move(jobs), "Ablation: small L1 sweep");

    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        std::vector<std::string> row{info->paperName};
        for (int i = 0; i < 4; ++i) {
            sim::SimResult c = results[k++];
            sim::SimResult t = results[k++];
            sim::SimResult d = results[k++];

            double ts = t.ipc / c.ipc;
            double ds = d.ipc / c.ipc;
            smallRel[static_cast<std::size_t>(i)].push_back(ts);
            decRel[static_cast<std::size_t>(i)].push_back(ds);
            row.push_back(sim::Table::num(ts, 2) + "/" +
                          sim::Table::num(ds, 2));
        }
        table.addRow(row);
    }
    std::vector<std::string> avg{"geomean"};
    for (int i = 0; i < 4; ++i)
        avg.push_back(
            sim::Table::num(
                geomean(smallRel[static_cast<std::size_t>(i)]), 2) +
            "/" +
            sim::Table::num(
                geomean(decRel[static_cast<std::size_t>(i)]), 2));
    table.addRow(avg);
    table.print(std::cout);

    std::printf("\nEach cell: tiny-2KB-L1 relative IPC / "
                "decoupled-(2+2)opt relative IPC, both against the "
                "conventional (4+0)\nat that L2 latency. The paper "
                "expects the first number to fall below 1.0 once the "
                "L2 is slower than ~4 cycles.\n");
    return 0;
}
