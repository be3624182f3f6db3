/**
 * @file
 * Observability layer tests: the streaming JSON writer, stats-tree
 * JSON export, run manifests, interval sampling, and the binary
 * pipeline trace (writer, reader, and agreement with the run's
 * results).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>

#include "config/presets.hh"
#include "obs/manifest.hh"
#include "obs/pipeline_trace.hh"
#include "obs/sampler.hh"
#include "obs/version.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "stats/group.hh"
#include "stats/histogram.hh"
#include "stats/json.hh"
#include "stats/stat.hh"
#include "util/json.hh"
#include "util/log.hh"
#include "workloads/common.hh"

using namespace ddsim;

namespace {

prog::Program
program(const char *name = "li", std::uint64_t scale = 10)
{
    workloads::WorkloadParams p;
    p.scale = scale;
    return workloads::build(name, p);
}

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(JsonWriter, CompactGolden)
{
    std::ostringstream ss;
    {
        JsonWriter w(ss, 0);
        w.beginObject();
        w.field("a", std::uint64_t{1});
        w.key("b");
        w.beginArray();
        w.value(1);
        w.value(2);
        w.beginObject();
        w.field("c", "x\"y");
        w.endObject();
        w.endArray();
        w.field("d", true);
        w.key("e");
        w.valueNull();
        w.endObject();
        EXPECT_TRUE(w.balanced());
    }
    EXPECT_EQ(ss.str(),
              "{\"a\":1,\"b\":[1,2,{\"c\":\"x\\\"y\"}],"
              "\"d\":true,\"e\":null}");
}

TEST(JsonWriter, NumbersRoundTrip)
{
    std::ostringstream ss;
    JsonWriter w(ss, 0);
    w.beginArray();
    w.value(std::uint64_t{18446744073709551615ull});
    w.value(2.5);
    w.value(3.0); // exact integer double prints without exponent
    w.value(0.0 / 0.0); // NaN -> null
    w.endArray();
    EXPECT_EQ(ss.str(), "[18446744073709551615,2.5,3,null]");
}

TEST(StatsJson, SchemaAndValues)
{
    stats::Group root(nullptr, "");
    stats::Group cpu(&root, "cpu");
    stats::Scalar cycles(&cpu, "cycles", "cycle count");
    cycles += 12345678901234ull;
    stats::Histogram occ(&cpu, "occ", "occupancy", 4, 2);
    occ.sample(1);
    occ.sample(100); // overflow

    std::ostringstream ss;
    stats::dumpJson(root, ss);
    std::string out = ss.str();
    EXPECT_NE(out.find("\"schema\": \"ddsim-stats-v1\""),
              std::string::npos);
    // Scalars keep full uint64 precision.
    EXPECT_NE(out.find("12345678901234"), std::string::npos);
    // Histograms carry geometry and overflow.
    EXPECT_NE(out.find("\"bucket_width\": 2"), std::string::npos);
    EXPECT_NE(out.find("\"overflow\": 1"), std::string::npos);
    EXPECT_NE(out.find("\"name\": \"cpu\""), std::string::npos);
}

TEST(Sampler, CumulativeRowsAndDeltas)
{
    stats::Group root(nullptr, "");
    stats::Group cpu(&root, "cpu");
    stats::Scalar counter(&cpu, "ctr", "");

    obs::Sampler s(root, 100);
    ASSERT_EQ(s.numColumns(), 1u);
    EXPECT_EQ(s.columns()[0], "cpu.ctr");

    counter += 10;
    s.onCommit(100, 250);
    counter += 5;
    s.onCommit(199, 498); // below the next boundary: no row
    s.onCommit(200, 500);
    s.finish(230, 575);

    ASSERT_EQ(s.numRows(), 3u);
    EXPECT_EQ(s.rowInstructions(0), 100u);
    EXPECT_EQ(s.rowCycle(1), 500u);
    EXPECT_EQ(s.rowInstructions(2), 230u); // final partial interval
    EXPECT_DOUBLE_EQ(s.valueAt(0, 0), 10.0);
    EXPECT_DOUBLE_EQ(s.valueAt(1, 0), 15.0); // cumulative
    EXPECT_DOUBLE_EQ(s.deltaAt(0, 0), 10.0);
    EXPECT_DOUBLE_EQ(s.deltaAt(1, 0), 5.0); // per-interval delta
    EXPECT_DOUBLE_EQ(s.deltaAt(2, 0), 0.0);

    // finish is idempotent per endpoint.
    s.finish(230, 575);
    EXPECT_EQ(s.numRows(), 3u);
}

TEST(Sampler, FilterSelectsSubtrees)
{
    stats::Group root(nullptr, "");
    stats::Group cpu(&root, "cpu");
    stats::Group mem(&root, "mem");
    stats::Scalar a(&cpu, "a", "");
    stats::Scalar b(&mem, "b", "");
    stats::Scalar c(&mem, "bb", "");

    obs::Sampler cpuOnly(root, 10, "cpu");
    ASSERT_EQ(cpuOnly.numColumns(), 1u);
    EXPECT_EQ(cpuOnly.columns()[0], "cpu.a");

    // Prefixes match at dot boundaries: "mem.b" must not pull in
    // "mem.bb".
    obs::Sampler oneStat(root, 10, "mem.b");
    ASSERT_EQ(oneStat.numColumns(), 1u);
    EXPECT_EQ(oneStat.columns()[0], "mem.b");
}

TEST(Sampler, DumpFormats)
{
    stats::Group root(nullptr, "");
    stats::Scalar n(&root, "n", "");
    obs::Sampler s(root, 50);
    n += 7;
    s.onCommit(50, 100);

    std::ostringstream csv;
    s.dumpCsv(csv);
    EXPECT_NE(csv.str().find("instructions,cycle,n"),
              std::string::npos);
    EXPECT_NE(csv.str().find("50,100,7"), std::string::npos);

    std::ostringstream json;
    s.dumpJson(json);
    EXPECT_NE(json.str().find("\"schema\": \"ddsim-samples-v1\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"delta\""), std::string::npos);
}

TEST(PipelineTrace, RoundTripsRecords)
{
    std::string path = tempPath("roundtrip.trace");
    {
        obs::PipelineTracer t(path, "wl", "(2+2)", "lbl", 4);
        // Two instructions: fetch both, dispatch into slots 0/1,
        // issue, commit.
        t.onFetch(1);
        t.onFetch(1);
        t.onDispatch(0, 10, 3);
        t.onDispatch(1, 11, 3);
        t.onIssue(0, 5);

        obs::TraceRecord r0;
        r0.seq = 10;
        r0.pcIdx = 42;
        r0.isLoad = true;
        r0.lvaqStream = true;
        r0.fastForwarded = true;
        r0.dispatchCycle = 3;
        r0.queueCycle = 3;
        r0.accessCycle = 6;
        r0.wbCycle = 7;
        r0.commitCycle = 9;
        t.onCommit(0, r0);

        obs::TraceRecord r1;
        r1.seq = 11;
        r1.pcIdx = 43;
        r1.dispatchCycle = 3;
        r1.wbCycle = 8;
        r1.commitCycle = 9;
        t.onCommit(1, r1);
        t.finish();
        EXPECT_EQ(t.records(), 2u);
    }

    obs::TraceReader reader(path);
    EXPECT_EQ(reader.header().workload, "wl");
    EXPECT_EQ(reader.header().notation, "(2+2)");
    EXPECT_EQ(reader.header().label, "lbl");
    EXPECT_EQ(reader.header().recordCount, 2u);

    obs::TraceRecord r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.seq, 10u);
    EXPECT_EQ(r.pcIdx, 42u);
    EXPECT_TRUE(r.isLoad);
    EXPECT_TRUE(r.lvaqStream);
    EXPECT_TRUE(r.fastForwarded);
    EXPECT_FALSE(r.isStore);
    EXPECT_EQ(r.fetchCycle, 1u); // filled in from the onFetch hook
    EXPECT_EQ(r.dispatchCycle, 3u);
    EXPECT_EQ(r.queueCycle, 3u);
    EXPECT_EQ(r.issueCycle, 5u); // filled in from the onIssue hook
    EXPECT_EQ(r.accessCycle, 6u);
    EXPECT_EQ(r.wbCycle, 7u);
    EXPECT_EQ(r.commitCycle, 9u);

    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.seq, 11u);
    EXPECT_EQ(r.issueCycle, obs::kNoCycle); // never issued
    EXPECT_EQ(r.accessCycle, obs::kNoCycle);
    EXPECT_FALSE(reader.next(r));
}

TEST(PipelineTrace, UnfinalizedFileIsFatal)
{
    setQuiet(true);
    std::string path = tempPath("unfinalized.trace");
    {
        // A header whose record count was never patched (writer died
        // before finish()).
        std::ofstream os(path, std::ios::binary);
        os.write(obs::kTraceMagic, 8);
        std::uint32_t ver = obs::kTraceVersion;
        os.write(reinterpret_cast<const char *>(&ver), 4);
        std::uint16_t zero = 0;
        for (int i = 0; i < 3; ++i)
            os.write(reinterpret_cast<const char *>(&zero), 2);
        std::uint64_t count = ~std::uint64_t{0};
        os.write(reinterpret_cast<const char *>(&count), 8);
    }
    EXPECT_THROW(obs::TraceReader reader(path), FatalError);
}

TEST(Manifest, RunCaptureMatchesResult)
{
    auto prog = program("li", 5);
    sim::RunOptions opts;
    opts.captureManifest = true;
    opts.label = "unit";
    sim::SimResult r = sim::run(prog, config::decoupled(2, 2), opts);

    ASSERT_FALSE(r.manifestJson.empty());
    const std::string &m = r.manifestJson;
    EXPECT_NE(m.find("\"schema\": \"ddsim-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(m.find("\"workload\": \"li\""), std::string::npos);
    EXPECT_NE(m.find("\"label\": \"unit\""), std::string::npos);
    EXPECT_NE(m.find("\"notation\": \"(2+2)\""), std::string::npos);
    EXPECT_NE(m.find(format("\"committed\": %llu",
                            (unsigned long long)r.committed)),
              std::string::npos);
    // The full stat tree rides along.
    EXPECT_NE(m.find("\"stats\""), std::string::npos);
    EXPECT_NE(m.find("\"cycles\""), std::string::npos);
}

TEST(Manifest, SweepAggregatesRunsInOrder)
{
    auto prog = std::make_shared<const prog::Program>(program("li", 5));
    sim::SweepRunner runner(2);
    sim::RunOptions with;
    with.captureManifest = true;
    runner.submit(prog, config::baseline(2), with);
    runner.submit(prog, config::baseline(2)); // no manifest -> null
    runner.submit(prog, config::decoupled(2, 2), with);
    sim::SweepOutcome outcome = runner.collectOutcome();

    std::ostringstream ss;
    sim::writeSweepManifest("unit sweep", outcome, ss);
    std::string out = ss.str();
    EXPECT_NE(out.find("\"schema\": \"ddsim-sweep-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(out.find("\"title\": \"unit sweep\""), std::string::npos);
    EXPECT_NE(out.find("\"num_runs\": 3"), std::string::npos);
    // The slot without a captured manifest is an explicit null so
    // array indices keep lining up with the submission grid.
    EXPECT_NE(out.find("null"), std::string::npos);
    EXPECT_NE(out.find("(2+2)"), std::string::npos);
}

TEST(ObsIntegration, TraceAgreesWithRunResult)
{
    auto prog = program("li", 5);
    std::string path = tempPath("li.trace");
    sim::RunOptions opts;
    opts.tracePath = path;
    sim::SimResult r =
        sim::run(prog, config::decoupledOptimized(2, 2), opts);

    obs::TraceReader reader(path);
    obs::TraceRecord rec;
    std::uint64_t count = 0, lvaqLoads = 0, prevSeq = 0;
    std::uint64_t prevCommit = 0;
    while (reader.next(rec)) {
        if (count > 0) {
            EXPECT_GT(rec.seq, prevSeq);         // commit order
            EXPECT_GE(rec.commitCycle, prevCommit);
        }
        prevSeq = rec.seq;
        prevCommit = rec.commitCycle;
        // Stage cycles never run backwards where known.
        if (rec.dispatchCycle != obs::kNoCycle) {
            EXPECT_LE(rec.dispatchCycle, rec.commitCycle);
        }
        if (rec.wbCycle != obs::kNoCycle) {
            EXPECT_LE(rec.wbCycle, rec.commitCycle);
        }
        lvaqLoads += rec.isLoad && rec.lvaqStream;
        ++count;
    }
    EXPECT_EQ(reader.header().recordCount, count);
    // One record per committed instruction, and the per-stream load
    // count agrees with the pipeline's own LVAQ counter.
    EXPECT_EQ(count, r.committed);
    EXPECT_EQ(lvaqLoads, r.lvaqLoads);
}

TEST(ObsIntegration, SampleFileEndsAtFinalTotals)
{
    auto prog = program("li", 5);
    std::string path = tempPath("li_samples.json");
    sim::RunOptions opts;
    opts.sampleInterval = 5000;
    opts.samplePath = path;
    opts.sampleFilter = "cpu.committed,cpu.cycles";
    sim::SimResult r = sim::run(prog, config::baseline(2), opts);

    std::string out = slurp(path);
    EXPECT_NE(out.find("\"schema\": \"ddsim-samples-v1\""),
              std::string::npos);
    EXPECT_NE(out.find("cpu.committed"), std::string::npos);
    // The last row is the run's endpoint: totals equal the result.
    EXPECT_NE(out.find(format("%llu", (unsigned long long)r.committed)),
              std::string::npos);
    EXPECT_NE(out.find(format("%llu", (unsigned long long)r.cycles)),
              std::string::npos);
}

TEST(ObsIntegration, SampleOptionsWithoutIntervalAreRejected)
{
    // With the sampler off (interval 0) a sample file would never be
    // written and a filter would select nothing: the run says so.
    auto prog = program("li", 5);
    sim::RunOptions withPath;
    withPath.samplePath = tempPath("never_written.json");
    try {
        sim::run(prog, config::baseline(2), withPath);
        FAIL() << "a sample path without an interval must be rejected";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.field(), "sample_interval");
    }
    EXPECT_FALSE(std::ifstream(withPath.samplePath).good());

    sim::RunOptions withFilter;
    withFilter.sampleFilter = "cpu.committed";
    EXPECT_THROW(sim::run(prog, config::baseline(2), withFilter),
                 ConfigError);

    // An interval without a path stays legal: the sampler runs and
    // nothing is written.
    sim::RunOptions intervalOnly;
    intervalOnly.sampleInterval = 5000;
    EXPECT_NO_THROW(sim::run(prog, config::baseline(2), intervalOnly));
}

TEST(ObsIntegration, VersionStringsAreNonEmpty)
{
    EXPECT_STREQ(obs::simulatorName(), "ddsim");
    EXPECT_NE(std::string(obs::simulatorVersion()), "");
    EXPECT_NE(std::string(obs::gitDescribe()), "");
}
