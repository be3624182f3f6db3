/**
 * @file
 * Differential-baseline generator: runs every workload under the five
 * reference machine configurations and prints the resulting SimResult
 * fields as a C++ table (tests/differential_baseline.inc).
 *
 * The table pins the timing semantics of the simulator: the
 * differential suite (tests/test_differential.cpp) asserts that every
 * run — direct, trace-replayed, or swept — reproduces these numbers
 * field-for-field. Regenerate (and review the diff!) only for an
 * intentional timing change:
 *
 *   build/tools/ddbaseline > tests/differential_baseline.inc
 *
 * With --sampled it pins the sampled engine instead: the 12 workloads
 * plus the two adversarial frame workloads at default scale, under two
 * sampling plans and four classifier configurations, every SimResult
 * field including the sampling block (tests/sampled_baseline.inc,
 * asserted by the DifferentialSampled suite in tests/test_sampled.cpp):
 *
 *   build/tools/ddbaseline --sampled > tests/sampled_baseline.inc
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "config/presets.hh"
#include "sim/runner.hh"
#include "workloads/common.hh"

using namespace ddsim;

namespace {

/**
 * The five reference configurations of the differential suite. Must
 * stay in sync with diffConfig() in tests/test_differential.cpp.
 */
config::MachineConfig
diffConfig(const std::string &name)
{
    if (name == "base4")
        return config::baseline(4);
    if (name == "dec32")
        return config::decoupled(3, 2);
    if (name == "dec22")
        return config::decoupled(2, 2);
    if (name == "rep32") {
        config::MachineConfig cfg = config::decoupled(3, 2);
        cfg.classifier = config::ClassifierKind::Replicate;
        return cfg;
    }
    // fast forwarding + 2-way combining
    return config::decoupledOptimized(3, 2);
}

/**
 * The sampled suite's configurations, covering every fast-forward
 * warming branch: steered (opt32), replicated (rep32), the region
 * predictor's training (pred32) and the re-warm after a misprediction
 * (ann32: the annotation bit is wrong for hugeframe's and
 * allocaframe's spilled locals; the predictor and the 12 workloads'
 * annotations are practically never wrong). Must stay in sync with
 * sampledConfig() in tests/test_sampled.cpp.
 */
config::MachineConfig
sampledConfig(const std::string &name)
{
    config::MachineConfig cfg = config::decoupled(3, 2);
    if (name == "rep32")
        cfg.classifier = config::ClassifierKind::Replicate;
    else if (name == "pred32")
        cfg.classifier = config::ClassifierKind::Predictor;
    else if (name == "ann32")
        cfg.classifier = config::ClassifierKind::Annotation;
    else
        cfg = config::decoupledOptimized(3, 2);
    return cfg;
}

/** Must stay in sync with samplingPlan() in tests/test_sampled.cpp. */
sim::SamplingPlan
samplingPlan(const std::string &name)
{
    sim::SamplingPlan plan;
    if (name == "sparse") {
        plan.period = 32768;
        plan.detail = 2048;
        plan.warmup = 256;
    }
    return plan;
}

void
printSampledBaseline()
{
    const char *configs[] = {"opt32", "rep32", "pred32", "ann32"};
    const char *plans[] = {"default", "sparse"};
    std::vector<workloads::WorkloadInfo> suite = workloads::all();
    suite.push_back(*workloads::find("hugeframe"));
    suite.push_back(*workloads::find("allocaframe"));

    auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };

    std::printf("// Generated by tools/ddbaseline --sampled — do not "
                "edit.\n");
    std::printf("// Pinned SimResults of the sampled engine; see file "
                "header of ddbaseline.cc.\n");
    for (const workloads::WorkloadInfo &w : suite) {
        workloads::WorkloadParams p;
        p.scale = w.defaultScale;
        prog::Program program = workloads::build(w.name, p);
        for (const char *planName : plans) {
            for (const char *cfgName : configs) {
                sim::RunOptions opts;
                opts.engine = sim::Engine::Sampled;
                opts.sampling = samplingPlan(planName);
                sim::SimResult r =
                    sim::run(program, sampledConfig(cfgName), opts);
                std::printf(
                    "{\"%s\", \"%s\", \"%s\", %lluu, %lluu, %.17g, "
                    "%lluu, %lluu, %lluu, %lluu, %.17g, %.17g, "
                    "%lluu, %lluu, %.17g, %lluu, %lluu, %.17g, %lluu, "
                    "%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %.17g, "
                    "%.17g, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, "
                    "%lluu, %.17g},\n",
                    w.name, cfgName, planName, u(r.cycles),
                    u(r.committed), r.ipc, u(r.loads), u(r.stores),
                    u(r.localLoads), u(r.localStores),
                    r.meanDynFrameWords, r.meanStaticFrameWords,
                    u(r.l1Accesses), u(r.l1Misses), r.l1MissRate,
                    u(r.lvcAccesses), u(r.lvcMisses), r.lvcMissRate,
                    u(r.l2Accesses), u(r.memAccesses),
                    u(r.lsqForwards), u(r.lvaqForwards),
                    u(r.lvaqFastForwards), u(r.lvaqCombined),
                    u(r.lvaqLoads), r.lvaqSatisfiedFrac,
                    r.classifierAccuracy, u(r.missteered),
                    u(r.classified), u(r.toLvaq), u(r.staticDecided),
                    u(r.sampling.windows), u(r.sampling.detailInsts),
                    u(r.sampling.detailCycles), r.sampling.ipcCi95);
            }
        }
    }
}

void
printDifferentialBaseline()
{
    const char *configs[] = {"base4", "dec32", "dec22", "rep32",
                             "opt32"};

    std::printf("// Generated by tools/ddbaseline — do not edit.\n");
    std::printf("// Pinned SimResults of the seed timing model; see "
                "file header of ddbaseline.cc.\n");

    for (const workloads::WorkloadInfo &w : workloads::all()) {
        workloads::WorkloadParams p;
        p.scale = w.defaultScale / 8;
        prog::Program program = workloads::build(w.name, p);
        for (const char *cfgName : configs) {
            sim::SimResult r =
                sim::run(program, diffConfig(cfgName));
            std::printf(
                "{\"%s\", \"%s\", %lluu, %lluu, %lluu, %lluu, %lluu, "
                "%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, "
                "%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %.17g},\n",
                w.name, cfgName,
                (unsigned long long)r.cycles,
                (unsigned long long)r.committed,
                (unsigned long long)r.loads,
                (unsigned long long)r.stores,
                (unsigned long long)r.localLoads,
                (unsigned long long)r.localStores,
                (unsigned long long)r.l1Accesses,
                (unsigned long long)r.l1Misses,
                (unsigned long long)r.lvcAccesses,
                (unsigned long long)r.lvcMisses,
                (unsigned long long)r.l2Accesses,
                (unsigned long long)r.memAccesses,
                (unsigned long long)r.lsqForwards,
                (unsigned long long)r.lvaqForwards,
                (unsigned long long)r.lvaqFastForwards,
                (unsigned long long)r.lvaqCombined,
                (unsigned long long)r.lvaqLoads,
                (unsigned long long)r.missteered,
                r.meanDynFrameWords);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    auto t0 = std::chrono::steady_clock::now();
    if (argc == 2 && std::strcmp(argv[1], "--sampled") == 0)
        printSampledBaseline();
    else
        printDifferentialBaseline();
    auto t1 = std::chrono::steady_clock::now();
    std::fprintf(stderr, "total wall: %lld ms\n",
                 (long long)std::chrono::duration_cast<
                     std::chrono::milliseconds>(t1 - t0).count());
    return 0;
}
