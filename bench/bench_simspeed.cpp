/**
 * @file
 * Simulator throughput measured with google-benchmark: simulated
 * instructions per wall-clock second for representative workload and
 * configuration pairs.
 *
 * `--json=<path>` switches to a self-timed measurement pass that
 * writes the results machine-readably (schema below) instead of
 * running google-benchmark; BENCH_simspeed.json at the repo root is
 * the committed output of that mode and tracks the perf trajectory
 * PR over PR.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "config/presets.hh"
#include "obs/version.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "util/log.hh"
#include "vm/trace.hh"
#include "workloads/common.hh"

using namespace ddsim;

namespace {

void
runOne(benchmark::State &state, const char *workload,
       config::MachineConfig cfg)
{
    workloads::WorkloadParams p;
    p.scale = workloads::find(workload)->defaultScale / 4;
    prog::Program program = workloads::build(workload, p);

    std::uint64_t insts = 0;
    for (auto _ : state) {
        sim::SimResult r = sim::run(program, cfg);
        insts += r.committed;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["Minst/s"] = benchmark::Counter(
        static_cast<double>(insts) / 1e6, benchmark::Counter::kIsRate);
}

void
BM_Baseline_li(benchmark::State &state)
{
    runOne(state, "li", config::baseline(2));
}

void
BM_Decoupled_li(benchmark::State &state)
{
    runOne(state, "li", config::decoupledOptimized(3, 2));
}

void
BM_Baseline_swim(benchmark::State &state)
{
    runOne(state, "swim", config::baseline(2));
}

void
BM_Decoupled_vortex(benchmark::State &state)
{
    runOne(state, "vortex", config::decoupledOptimized(3, 2));
}

void
BM_SweepGrid_li(benchmark::State &state)
{
    // A Fig. 7-like (N+M) slice through SweepRunner; Arg = workers
    // (0 = one per hardware thread). Results are identical for any
    // worker count; only wall-clock changes.
    workloads::WorkloadParams p;
    p.scale = workloads::find("li")->defaultScale / 8;
    auto program = std::make_shared<const prog::Program>(
        workloads::build("li", p));

    unsigned workers = static_cast<unsigned>(state.range(0));
    std::uint64_t insts = 0;
    for (auto _ : state) {
        sim::SweepRunner sweep(workers);
        for (int n : {2, 3, 4})
            for (int m : {0, 1, 2})
                sweep.submit(program,
                             m == 0 ? config::baseline(n)
                                    : config::decoupled(n, m));
        for (const sim::SimResult &r : sweep.collect())
            insts += r.committed;
    }
    state.counters["Minst/s"] = benchmark::Counter(
        static_cast<double>(insts) / 1e6, benchmark::Counter::kIsRate);
}

void
BM_WorkloadGeneration(benchmark::State &state)
{
    workloads::WorkloadParams p;
    p.scale = 50;
    for (auto _ : state) {
        prog::Program program = workloads::build("gcc", p);
        benchmark::DoNotOptimize(program.textSize());
    }
}

// ---- --json mode ----------------------------------------------------------

/**
 * Committed instructions per wall-clock second of repeated
 * sim::run()s, measured until at least @p minSec has elapsed.
 */
double
timedRate(const prog::Program &program,
          const config::MachineConfig &cfg,
          const sim::RunOptions &opts, double minSec)
{
    using clock = std::chrono::steady_clock;
    std::uint64_t insts = 0;
    double elapsed = 0.0;
    int reps = 0;
    while (elapsed < minSec || reps < 2) {
        auto t0 = clock::now();
        sim::SimResult r = sim::run(program, cfg, opts);
        elapsed +=
            std::chrono::duration<double>(clock::now() - t0).count();
        insts += r.committed;
        ++reps;
    }
    return static_cast<double>(insts) / elapsed / 1e6;
}

/** One engine variant of the Fig. 7 sweep-grid measurement. */
struct SweepRow
{
    const char *engine;
    std::size_t jobs = 0;
    double wallMs = 0.0;
    double rate = 0.0;
};

/**
 * The full Fig. 7 grid (per program: (2+0) base + 3x5 (N+M) matrix)
 * at one worker, traces shared per program, under the given engine.
 * Auto is the committed schema-1 measurement (per-point shared-trace
 * replay); Sampled runs the default SMARTS plan (IPC becomes an
 * estimate, and committed still counts the whole program, so the rate
 * stays comparable).
 */
SweepRow
fig7Sweep(const char *label, sim::Engine engine)
{
    using clock = std::chrono::steady_clock;
    SweepRow row;
    row.engine = label;
    std::uint64_t insts = 0;
    auto t0 = clock::now();
    {
        sim::SweepRunner sweep(1);
        sim::RunOptions ro;
        ro.engine = engine;
        for (const workloads::WorkloadInfo &w : workloads::all()) {
            workloads::WorkloadParams p;
            p.scale = w.defaultScale;
            auto program = std::make_shared<const prog::Program>(
                workloads::build(w.name, p));
            sweep.submit(program, config::baseline(2), ro);
            ++row.jobs;
            for (int n : {2, 3, 4}) {
                for (int m : {0, 1, 2, 3, 16}) {
                    sweep.submit(program,
                                 m == 0 ? config::baseline(n)
                                        : config::decoupled(n, m),
                                 ro);
                    ++row.jobs;
                }
            }
        }
        for (const sim::SimResult &r : sweep.collect())
            insts += r.committed;
    }
    row.wallMs =
        std::chrono::duration<double, std::milli>(clock::now() - t0)
            .count();
    row.rate = static_cast<double>(insts) / (row.wallMs * 1e3);
    return row;
}

/**
 * The acceptance metrics of the engine stack, plus context:
 * per-workload single-run throughput (live execution, shared-trace
 * replay, one sampled run) and the wall clock of the full Fig. 7
 * (N+M) sweep grid at --jobs=1 under each engine.
 */
int
writeJson(const char *path)
{
    struct Single
    {
        const char *name;
        const char *workload;
        const char *config;
        const char *engine;
        double rate;
    };
    std::vector<Single> singles;

    auto programOf = [](const char *workload) {
        workloads::WorkloadParams p;
        p.scale = workloads::find(workload)->defaultScale / 4;
        return workloads::build(workload, p);
    };
    const double minSec = 0.3;

    {
        prog::Program li = programOf("li");
        singles.push_back({"baseline2_li", "li", "baseline(2)", "live",
                           timedRate(li, config::baseline(2), {},
                                     minSec)});
        singles.push_back(
            {"decoupledOpt32_li", "li", "decoupledOptimized(3,2)",
             "live",
             timedRate(li, config::decoupledOptimized(3, 2), {},
                       minSec)});
        sim::RunOptions replayOpts;
        replayOpts.trace = std::make_shared<const vm::RecordedTrace>(
            vm::RecordedTrace::record(li));
        singles.push_back(
            {"decoupledOpt32_li_replay", "li",
             "decoupledOptimized(3,2)", "replay",
             timedRate(li, config::decoupledOptimized(3, 2),
                       replayOpts, minSec)});
        sim::RunOptions sampledOpts;
        sampledOpts.engine = sim::Engine::Sampled;
        singles.push_back(
            {"decoupledOpt32_li_sampled", "li",
             "decoupledOptimized(3,2)", "sampled",
             timedRate(li, config::decoupledOptimized(3, 2),
                       sampledOpts, minSec)});
    }
    {
        prog::Program swim = programOf("swim");
        singles.push_back({"baseline2_swim", "swim", "baseline(2)",
                           "live",
                           timedRate(swim, config::baseline(2), {},
                                     minSec)});
    }
    {
        prog::Program vortex = programOf("vortex");
        singles.push_back(
            {"decoupledOpt32_vortex", "vortex",
             "decoupledOptimized(3,2)", "live",
             timedRate(vortex, config::decoupledOptimized(3, 2), {},
                       minSec)});
    }

    // The sweep acceptance metric, once per engine. "replay" is the
    // schema-1 measurement under its historical key.
    std::vector<SweepRow> sweeps;
    sweeps.push_back(fig7Sweep("replay", sim::Engine::Auto));
    sweeps.push_back(fig7Sweep("sampled", sim::Engine::Sampled));

    std::FILE *f = std::fopen(path, "w");
    if (!f)
        fatal("cannot open %s for writing", path);
    std::fprintf(f,
                 "{\n  \"bench\": \"simspeed\",\n"
                 "  \"schema\": 2,\n"
                 "  \"generator\": {\"name\": \"%s\", \"version\": "
                 "\"%s\", \"git\": \"%s\"},\n"
                 "  \"units\": {\"throughput\": \"Minst/s\", "
                 "\"wall\": \"ms\"},\n"
                 "  \"single_runs\": [\n",
                 obs::simulatorName(), obs::simulatorVersion(),
                 obs::gitDescribe());
    for (std::size_t i = 0; i < singles.size(); ++i) {
        const Single &s = singles[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"workload\": \"%s\", "
                     "\"config\": \"%s\", \"engine\": \"%s\", "
                     "\"minst_per_s\": %.3f}%s\n",
                     s.name, s.workload, s.config, s.engine, s.rate,
                     i + 1 < singles.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"fig7_sweep\": [\n");
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const SweepRow &s = sweeps[i];
        std::fprintf(f,
                     "    {\"engine\": \"%s\", \"jobs\": 1, "
                     "\"grid_jobs\": %zu, \"trace_sharing\": true, "
                     "\"wall_ms\": %.1f, \"minst_per_s\": %.3f}%s\n",
                     s.engine, s.jobs, s.wallMs, s.rate,
                     i + 1 < sweeps.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu single runs; %zu-job sweep: ", path,
                singles.size(), sweeps.front().jobs);
    for (const SweepRow &s : sweeps)
        std::printf("%s %.1f ms (%.2f Minst/s)%s", s.engine, s.wallMs,
                    s.rate, &s == &sweeps.back() ? ")\n" : ", ");
    return 0;
}

} // namespace

BENCHMARK(BM_Baseline_li)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Decoupled_li)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Baseline_swim)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Decoupled_vortex)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepGrid_li)->Arg(1)->Arg(0)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            return writeJson(argv[i] + 7);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
