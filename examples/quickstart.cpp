/**
 * @file
 * Quickstart: simulate one workload on the paper's baseline machine
 * and on the data-decoupled machine, and compare.
 *
 * Usage: quickstart [--workload=li] [--scale=1.0]
 *
 * Observability (applies to the decoupled run; see
 * docs/OBSERVABILITY.md):
 *   --manifest=<f>         write a JSON run manifest
 *   --trace=<f>            write a binary pipeline trace (see ddtrace)
 *   --sample=<f>           write interval stats (.json or .csv)
 *   --sample-interval=<n>  instructions between samples (default 10000;
 *                          needs --sample, and 0 is refused)
 *   --sample-filter=<p,..> stat-path prefixes to sample (default: all;
 *                          needs --sample)
 *
 * Run supervision (see docs/ROBUSTNESS.md):
 *   --max-cycles=<n>       simulated-cycle budget (0 = unlimited)
 *   --max-wall=<s>         wall-clock budget in seconds (0 = unlimited)
 *   --blackbox=<f>         write a JSON crash report if the run dies
 */

#include <cstdio>

#include "config/cli.hh"
#include "config/presets.hh"
#include "sim/runner.hh"
#include "util/log.hh"
#include "workloads/common.hh"

using namespace ddsim;

int
main(int argc, char **argv)
{
    config::CliArgs args(argc, argv);
    std::string name = args.get("workload", "li");
    double scale = args.getDouble("scale", 1.0);

    sim::RunOptions obsOpts;
    obsOpts.manifestPath = args.get("manifest");
    obsOpts.tracePath = args.get("trace");
    obsOpts.samplePath = args.get("sample");
    for (const char *flag : {"sample-interval", "sample-filter"})
        if (obsOpts.samplePath.empty() && args.has(flag))
            fatal("--%s needs --sample=<f>", flag);
    if (!obsOpts.samplePath.empty())
        obsOpts.sampleInterval = static_cast<std::uint64_t>(
            args.getInt("sample-interval", 10000));
    obsOpts.sampleFilter = args.get("sample-filter");
    obsOpts.maxCycles = static_cast<std::uint64_t>(
        args.getInt("max-cycles", 0));
    obsOpts.maxWallSeconds = args.getDouble("max-wall", 0.0);
    obsOpts.blackboxPath = args.get("blackbox");
    args.rejectUnknown();

    const workloads::WorkloadInfo *info = workloads::find(name);
    if (!info) {
        std::printf("unknown workload '%s'; available:", name.c_str());
        for (const auto &w : workloads::all())
            std::printf(" %s", w.name);
        std::printf("\n");
        return 1;
    }

    // 1. Build the synthetic SPEC95-like program.
    workloads::WorkloadParams params;
    params.scale = static_cast<std::uint64_t>(
        static_cast<double>(info->defaultScale) * scale);
    prog::Program program = info->factory(params);
    std::printf("workload %s (%s): %zu static instructions\n",
                info->paperName, info->description,
                program.textSize());

    // Every failure sim::run can hit is a typed SimError (no abort),
    // so one catch site turns any of them — bad config, blown budget,
    // deadlock, corrupt trace — into a clean exit. With --blackbox the
    // runner has already written the crash report by the time we land
    // here.
    try {
        // 2. The conventional machine: 16-wide, 2-port 32 KB L1
        //    ("(2+0)").
        sim::SimResult base = sim::run(program, config::baseline(2),
                                       {});
        std::printf("\n(2+0) conventional:      %s\n",
                    base.summary().c_str());

        // 3. The data-decoupled machine: 2-port L1 plus a 2-port 2 KB
        //    LVC fed by the LVAQ, with fast data forwarding and 2-way
        //    access combining ("(2+2)" optimized).
        sim::SimResult dec =
            sim::run(program, config::decoupledOptimized(2, 2),
                     obsOpts);
        std::printf("(2+2) data-decoupled:    %s\n",
                    dec.summary().c_str());

        std::printf("\nspeedup: %.2fx\n", sim::speedup(dec, base));
        std::printf("LVC hit rate: %.2f%% (%llu accesses)\n",
                    (1.0 - dec.lvcMissRate) * 100.0,
                    (unsigned long long)dec.lvcAccesses);
        std::printf("loads satisfied inside the LVAQ: %.0f%% "
                    "(%llu forwarded, %llu fast-forwarded)\n",
                    dec.lvaqSatisfiedFrac * 100.0,
                    (unsigned long long)dec.lvaqForwards,
                    (unsigned long long)dec.lvaqFastForwards);
        std::printf("L2 bus traffic: %llu -> %llu accesses\n",
                    (unsigned long long)base.l2Accesses,
                    (unsigned long long)dec.l2Accesses);
    } catch (const SimError &e) {
        std::fprintf(stderr, "run failed [%s]: %s\n", e.kind().c_str(),
                     e.what());
        if (!obsOpts.blackboxPath.empty())
            std::fprintf(stderr, "crash report: %s\n",
                         obsOpts.blackboxPath.c_str());
        return 1;
    }

    return 0;
}
