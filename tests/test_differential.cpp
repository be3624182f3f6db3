/**
 * @file
 * Differential timing suite: every workload under five reference
 * machine configurations, asserted field-for-field against the pinned
 * SimResults in differential_baseline.inc (generated from the seed
 * timing model by tools/ddbaseline).
 *
 * Any scheduling-core optimization — wakeup networks, indexed queues,
 * early returns from idle ticks, trace replay — must keep these
 * numbers bit-identical: the speedups are implementation-only, never
 * model-visible.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>

#include "config/presets.hh"
#include "sim/runner.hh"
#include "vm/trace.hh"
#include "workloads/common.hh"

using namespace ddsim;

namespace {

struct BaselineRow
{
    const char *workload;
    const char *cfg;
    std::uint64_t cycles;
    std::uint64_t committed;
    std::uint64_t loads;
    std::uint64_t stores;
    std::uint64_t localLoads;
    std::uint64_t localStores;
    std::uint64_t l1Accesses;
    std::uint64_t l1Misses;
    std::uint64_t lvcAccesses;
    std::uint64_t lvcMisses;
    std::uint64_t l2Accesses;
    std::uint64_t memAccesses;
    std::uint64_t lsqForwards;
    std::uint64_t lvaqForwards;
    std::uint64_t lvaqFastForwards;
    std::uint64_t lvaqCombined;
    std::uint64_t lvaqLoads;
    std::uint64_t missteered;
    double meanDynFrameWords;
};

const BaselineRow kBaseline[] = {
#include "differential_baseline.inc"
};

/** Must stay in sync with diffConfig() in tools/ddbaseline.cc. */
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
    return config::decoupledOptimized(3, 2);
}

/** Workload programs built once and shared across all configs. */
const prog::Program &
programFor(const std::string &workload)
{
    static std::map<std::string, std::unique_ptr<prog::Program>> cache;
    auto it = cache.find(workload);
    if (it == cache.end()) {
        workloads::WorkloadParams p;
        p.scale = workloads::find(workload)->defaultScale / 8;
        it = cache
                 .emplace(workload,
                          std::make_unique<prog::Program>(
                              workloads::build(workload, p)))
                 .first;
    }
    return *it->second;
}

void
expectMatchesBaseline(const sim::SimResult &r, const BaselineRow &row,
                      const char *how)
{
    SCOPED_TRACE(std::string(row.workload) + "/" + row.cfg + " via " +
                 how);
    EXPECT_EQ(r.cycles, row.cycles);
    EXPECT_EQ(r.committed, row.committed);
    EXPECT_EQ(r.loads, row.loads);
    EXPECT_EQ(r.stores, row.stores);
    EXPECT_EQ(r.localLoads, row.localLoads);
    EXPECT_EQ(r.localStores, row.localStores);
    EXPECT_EQ(r.l1Accesses, row.l1Accesses);
    EXPECT_EQ(r.l1Misses, row.l1Misses);
    EXPECT_EQ(r.lvcAccesses, row.lvcAccesses);
    EXPECT_EQ(r.lvcMisses, row.lvcMisses);
    EXPECT_EQ(r.l2Accesses, row.l2Accesses);
    EXPECT_EQ(r.memAccesses, row.memAccesses);
    EXPECT_EQ(r.lsqForwards, row.lsqForwards);
    EXPECT_EQ(r.lvaqForwards, row.lvaqForwards);
    EXPECT_EQ(r.lvaqFastForwards, row.lvaqFastForwards);
    EXPECT_EQ(r.lvaqCombined, row.lvaqCombined);
    EXPECT_EQ(r.lvaqLoads, row.lvaqLoads);
    EXPECT_EQ(r.missteered, row.missteered);
    EXPECT_DOUBLE_EQ(r.meanDynFrameWords, row.meanDynFrameWords);
}

class Differential : public ::testing::TestWithParam<BaselineRow>
{};

std::string
rowName(const ::testing::TestParamInfo<BaselineRow> &info)
{
    return std::string(info.param.workload) + "_" + info.param.cfg;
}

} // namespace

TEST_P(Differential, DirectRunMatchesSeedModel)
{
    const BaselineRow &row = GetParam();
    sim::SimResult r =
        sim::run(programFor(row.workload), diffConfig(row.cfg));
    expectMatchesBaseline(r, row, "direct");
}

TEST_P(Differential, TraceReplayMatchesSeedModel)
{
    const BaselineRow &row = GetParam();
    const prog::Program &program = programFor(row.workload);
    auto trace = std::make_shared<const vm::RecordedTrace>(
        vm::RecordedTrace::record(program));
    sim::RunOptions opts;
    opts.trace = trace;
    sim::SimResult r = sim::run(program, diffConfig(row.cfg), opts);
    expectMatchesBaseline(r, row, "trace-replay");
}

TEST_P(Differential, ObservabilityOnMatchesSeedModel)
{
    // Manifest capture, interval sampling and pipeline tracing must be
    // pure observers: with all three enabled, every pinned column
    // stays bit-identical to the seed model.
    const BaselineRow &row = GetParam();
    sim::RunOptions opts;
    opts.captureManifest = true;
    opts.sampleInterval = 4096;
    opts.tracePath = ::testing::TempDir() + "diff_" + row.workload +
                     "_" + row.cfg + ".trace";
    sim::SimResult r =
        sim::run(programFor(row.workload), diffConfig(row.cfg), opts);
    expectMatchesBaseline(r, row, "observability-on");
    EXPECT_FALSE(r.manifestJson.empty());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloadsAllConfigs, Differential,
                         ::testing::ValuesIn(kBaseline), rowName);

TEST(DifferentialBatched, OneColumnPassMatchesSeedModel)
{
    // Batched multi-config replay: every workload's five pinned
    // configurations as ONE runBatch column over one shared trace
    // pass. Each lane must stay bit-identical to the seed model —
    // batching is an implementation speedup, never model-visible.
    std::map<std::string, std::vector<const BaselineRow *>> byWorkload;
    for (const BaselineRow &row : kBaseline)
        byWorkload[row.workload].push_back(&row);
    ASSERT_FALSE(byWorkload.empty());
    for (const auto &[workload, rows] : byWorkload) {
        const prog::Program &program = programFor(workload);
        std::vector<config::MachineConfig> cfgs;
        cfgs.reserve(rows.size());
        for (const BaselineRow *row : rows)
            cfgs.push_back(diffConfig(row->cfg));
        std::vector<sim::SimResult> rs = sim::runBatch(program, cfgs);
        ASSERT_EQ(rs.size(), rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i)
            expectMatchesBaseline(rs[i], *rows[i], "batched");
    }
}
