/**
 * @file
 * Ablation (Section 1 / Section 5): the paper's ideal cache ports
 * (footnote 8) vs the realistic *interleaved* multi-porting used by
 * e.g. the MIPS R10000, where same-bank accesses conflict. Bank
 * conflicts erode the conventional (4+0) configuration's bandwidth,
 * widening the decoupled machine's advantage — one of the paper's
 * core motivations for the data-decoupled design.
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
    banner("Ablation: ideal vs interleaved (banked) L1 ports, "
           "IPC relative to ideal (4+0)",
           "bank conflicts cost the conventional design real "
           "bandwidth; the decoupled (2+2) does not care");

    sim::Table table({"program", "banked 4x4", "banked 4x8",
                      "banked 4x16", "(2+2)opt ideal",
                      "(2+2)opt banked 2x4"});
    std::vector<double> b4, dec, decB;

    std::vector<sim::GridJob> jobs;
    for (const auto *info : opts.programs) {
        jobs.push_back(opts.job(*info, config::baseline(4)));
        for (int banks : {4, 8, 16}) {
            config::MachineConfig cfg = config::baseline(4);
            cfg.l1.banks = banks;
            jobs.push_back(opts.job(*info, cfg));
        }
        jobs.push_back(opts.job(*info, config::decoupledOptimized(2, 2)));
        config::MachineConfig db = config::decoupledOptimized(2, 2);
        db.l1.banks = 4;
        db.lvc.banks = 4;
        jobs.push_back(opts.job(*info, db));
    }
    std::vector<sim::SimResult> results =
        runGrid(opts, std::move(jobs), "Ablation: banked L1 sweep");

    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        sim::SimResult ideal = results[k++];

        std::vector<std::string> row{info->paperName};
        for (int banks : {4, 8, 16}) {
            sim::SimResult r = results[k++];
            row.push_back(sim::Table::num(r.ipc / ideal.ipc, 3));
            if (banks == 4)
                b4.push_back(r.ipc / ideal.ipc);
        }

        sim::SimResult d = results[k++];
        row.push_back(sim::Table::num(d.ipc / ideal.ipc, 3));
        dec.push_back(d.ipc / ideal.ipc);

        sim::SimResult d2 = results[k++];
        row.push_back(sim::Table::num(d2.ipc / ideal.ipc, 3));
        decB.push_back(d2.ipc / ideal.ipc);

        table.addRow(row);
    }
    table.addRow({"geomean", sim::Table::num(geomean(b4), 3), "", "",
                  sim::Table::num(geomean(dec), 3),
                  sim::Table::num(geomean(decB), 3)});
    table.print(std::cout);

    std::printf("\nColumns are relative to the ideal-port (4+0). "
                "\"banked 4xK\" = 4 ports over K single-ported "
                "banks.\nBanking should cost the conventional design "
                "a few percent (less with more banks), while the\n"
                "decoupled machine loses little even when both of its "
                "caches are banked (its per-cache port\ncounts are "
                "small).\n");
    return 0;
}
