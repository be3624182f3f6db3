/**
 * @file
 * Figure 11: per-program (N+M) performance surfaces for 126.gcc,
 * 130.li, 147.vortex and 102.swim (the paper's selected programs),
 * with the proposed optimizations, relative to each program's (2+0).
 *
 * Paper: when bandwidth is the bottleneck (N=2), adding a two-port
 * LVC achieves >25% speedup for li-class programs, while with ample
 * bandwidth (N=4) the gain drops under ~2%; swim (FP) barely moves.
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
    // The paper's Figure 11 shows gcc, li, vortex and swim.
    const char *defaults = "gcc,li,vortex,swim";
    std::vector<std::string> argvCopy;
    std::vector<const char *> argvPtrs;
    argvPtrs.push_back("bench_fig11");
    bool hasPrograms = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--programs=", 0) == 0)
            hasPrograms = true;
        argvPtrs.push_back(argv[i]);
    }
    std::string progArg = std::string("--programs=") + defaults;
    if (!hasPrograms)
        argvPtrs.push_back(progArg.c_str());

    Options opts(static_cast<int>(argvPtrs.size()), argvPtrs.data());
    banner("Figure 11: per-program (N+M) surfaces (optimized), "
           "relative to each program's (2+0)",
           ">25% gain from a 2-port LVC at N=2 for li-class; <2% at "
           "N=4; swim nearly flat");

    std::vector<sim::GridJob> jobs;
    for (const auto *info : opts.programs) {
        jobs.push_back(opts.job(*info, config::baseline(2)));
        for (int n : {2, 3, 4})
            for (int m : {0, 1, 2, 3})
                jobs.push_back(opts.job(
                    *info, m == 0 ? config::baseline(n)
                                  : config::decoupledOptimized(n, m)));
    }
    std::vector<sim::SimResult> results =
        runGrid(opts, std::move(jobs), "Figure 11 per-program sweep");

    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        sim::SimResult base = results[k++];

        std::printf("\n%s (IPC at (2+0): %.3f):\n\n",
                    info->paperName, base.ipc);
        sim::Table table({"config", "M=0", "M=1", "M=2", "M=3"});
        for (int n : {2, 3, 4}) {
            std::vector<std::string> row{"N=" + std::to_string(n)};
            for (int col = 0; col < 4; ++col) {
                sim::SimResult r = results[k++];
                row.push_back(sim::Table::num(r.ipc / base.ipc, 3));
            }
            table.addRow(row);
        }
        table.print(std::cout);
    }
    return 0;
}
