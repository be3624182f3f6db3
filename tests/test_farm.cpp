/**
 * @file
 * The sweep-farm battery: grid-spec round-trips, spool/claim
 * semantics, worker execution, resume-after-interruption, shard-count
 * invariance of the merged manifest (bit-identical to an in-process
 * SweepRunner reference), persistent-fault quarantine parity, the
 * concurrent claim race, and — through the real ddsweep binary —
 * supervisor crash isolation with crash-quarantine.
 *
 * Labelled "farm" in ctest. The supervisor tests exec the ddsweep
 * tool (path baked in via DDSIM_DDSWEEP), so they exercise the same
 * process tree a production farm uses.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/presets.hh"
#include "robust/fault_inject.hh"
#include "sim/farm.hh"
#include "sim/grid_spec.hh"
#include "sim/sweep.hh"
#include "sim/table.hh"
#include "util/file_claim.hh"
#include "util/json.hh"
#include "util/json_parse.hh"
#include "util/log.hh"
#include "util/subprocess.hh"

using namespace ddsim;
using namespace ddsim::sim;

namespace {

/** Fresh per-test scratch directory under gtest's temp root. */
std::string
freshDir(const std::string &leaf)
{
    std::string path = ::testing::TempDir() + "farm_" + leaf;
    std::filesystem::remove_all(path);
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << text;
}

/**
 * A small but real grid: two workloads x two machines, capped so each
 * point simulates quickly. The same spec drives every farm test, so
 * byte-comparisons all share one reference document.
 */
GridSpec
smallGrid()
{
    GridSpec spec;
    spec.title = "farm test grid";
    const char *workloads[] = {"li", "compress"};
    std::uint64_t id = 0;
    for (const char *wl : workloads) {
        for (int m : {0, 2}) {
            GridJob job;
            job.id = id++;
            job.workload = wl;
            job.scale = 4;
            job.seed = 0x5eed;
            job.maxInsts = 3000;
            job.warmupInsts = 100;
            job.cfg = m == 0 ? config::baseline(2)
                             : config::decoupled(2, m);
            spec.jobs.push_back(std::move(job));
        }
    }
    return spec;
}

/** The uninterrupted in-process reference manifest for smallGrid(). */
const std::string &
referenceManifest()
{
    static std::string bytes = [] {
        std::string path = freshDir("reference") + ".json";
        farm::runSerial(smallGrid(), 2, RetryPolicy{}, 0, 0.0, path);
        return slurp(path);
    }();
    return bytes;
}

class QuietGuard
{
  public:
    QuietGuard() { setQuiet(true); }
    ~QuietGuard() { setQuiet(false); }
};

} // namespace

// ---------------------------------------------------------------------
// Grid specs
// ---------------------------------------------------------------------

TEST(GridSpec, RoundTripsThroughJson)
{
    GridSpec spec = smallGrid();
    std::string path = freshDir("roundtrip") + ".json";
    spec.writeFile(path);

    GridSpec back = GridSpec::fromFile(path);
    EXPECT_EQ(back.title, spec.title);
    ASSERT_EQ(back.jobs.size(), spec.jobs.size());
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        EXPECT_EQ(back.jobs[i].id, spec.jobs[i].id);
        EXPECT_EQ(back.jobs[i].workload, spec.jobs[i].workload);
        EXPECT_EQ(back.jobs[i].scale, spec.jobs[i].scale);
        EXPECT_EQ(back.jobs[i].seed, spec.jobs[i].seed);
        EXPECT_EQ(back.jobs[i].maxInsts, spec.jobs[i].maxInsts);
        EXPECT_EQ(back.jobs[i].warmupInsts, spec.jobs[i].warmupInsts);
        EXPECT_EQ(back.jobs[i].cfg.notation(),
                  spec.jobs[i].cfg.notation());
        EXPECT_EQ(back.jobs[i].cfg.lvc.ports,
                  spec.jobs[i].cfg.lvc.ports);
    }

    // A re-serialized parse is byte-identical: the writer layout is
    // the canonical form.
    std::string again = freshDir("roundtrip2") + ".json";
    back.writeFile(again);
    EXPECT_EQ(slurp(path), slurp(again));
}

TEST(GridSpec, RejectsMalformedDocuments)
{
    QuietGuard quiet;
    GridSpec spec = smallGrid();
    std::string path = freshDir("malformed") + ".json";
    spec.writeFile(path);
    const std::string good = slurp(path);

    auto patched = [&](const std::string &from, const std::string &to) {
        std::string text = good;
        auto pos = text.find(from);
        ASSERT_NE(pos, std::string::npos) << from;
        text.replace(pos, from.size(), to);
        spit(path, text);
    };

    patched("ddsim-grid-v1", "ddsim-grid-v0");
    EXPECT_THROW(GridSpec::fromFile(path), FatalError);

    // Dense-id violation: first job claims id 7.
    patched("\"id\": 0", "\"id\": 7");
    EXPECT_THROW(GridSpec::fromFile(path), FatalError);

    patched("\"workload\": \"li\"", "\"workload\": \"spice\"");
    EXPECT_THROW(GridSpec::fromFile(path), FatalError);

    // Notation redundancy check: edit a config field, keep the
    // notation string.
    patched("\"lvc_enabled\": false", "\"lvc_enabled\": true");
    EXPECT_THROW(GridSpec::fromFile(path), ConfigError);

    patched("\"num_jobs\": 4", "\"num_jobs\": 5");
    EXPECT_THROW(GridSpec::fromFile(path), FatalError);

    spit(path, "{ not json");
    EXPECT_THROW(GridSpec::fromFile(path), JsonParseError);
}

TEST(GridSpec, RejectsImpossibleSamplingPlans)
{
    QuietGuard quiet;
    GridSpec spec = smallGrid();
    GridJob &job = spec.jobs.front();
    job.engine = Engine::Sampled;
    job.warmupInsts = 0;
    job.sampling = SamplingPlan{64, 32, 8};
    EXPECT_NO_THROW(spec.validate());

    // Warmup + detail longer than the period.
    job.sampling = SamplingPlan{64, 60, 8};
    EXPECT_THROW(spec.validate(), FatalError);

    // A plan whose naive sum wraps: 2 + (UINT64_MAX - 1) == 0 <= 10.
    job.sampling = SamplingPlan{10, UINT64_MAX - 1, 2};
    EXPECT_THROW(spec.validate(), FatalError);
}

// ---------------------------------------------------------------------
// Spooling and claims
// ---------------------------------------------------------------------

TEST(Spool, NamesRoundTrip)
{
    farm::SpoolEntry e;
    ASSERT_TRUE(
        farm::parseSpoolName(farm::Spool::jobFileName(12, 3), e));
    EXPECT_EQ(e.id, 12u);
    EXPECT_EQ(e.shard, 3);
    EXPECT_TRUE(e.worker.empty());

    ASSERT_TRUE(farm::parseSpoolName(
        farm::Spool::claimFileName(1048577, 41, "w7"), e));
    EXPECT_EQ(e.id, 1048577u);
    EXPECT_EQ(e.shard, 41);
    EXPECT_EQ(e.worker, "w7");

    EXPECT_FALSE(farm::parseSpoolName("job-000001.json", e));
    EXPECT_FALSE(
        farm::parseSpoolName("job-000001.manifest.json", e));
    EXPECT_FALSE(farm::parseSpoolName("grid.json", e));
    EXPECT_FALSE(farm::parseSpoolName("job-00000x.s001.json", e));
}

TEST(Spool, SpoolGridLaysOutJobsRoundRobin)
{
    GridSpec spec = smallGrid();
    std::string root = freshDir("layout");
    farm::spoolGrid(spec, root, 2);

    farm::Spool sp(root);
    EXPECT_TRUE(fileExists(sp.gridPath()));
    std::vector<std::string> names = listDir(sp.jobsDir());
    ASSERT_EQ(names.size(), spec.jobs.size());
    for (const std::string &name : names) {
        farm::SpoolEntry e;
        ASSERT_TRUE(farm::parseSpoolName(name, e)) << name;
        EXPECT_EQ(e.shard, static_cast<int>(e.id % 2)) << name;
    }

    farm::SpoolStatus st = farm::scanSpool(root);
    EXPECT_EQ(st.total, spec.jobs.size());
    EXPECT_EQ(st.pending, spec.jobs.size());
    EXPECT_EQ(st.done(), 0u);
    EXPECT_EQ(st.shards, 2);
    EXPECT_FALSE(st.complete());

    // Spooling refuses to clobber an existing spool.
    EXPECT_THROW(farm::spoolGrid(spec, root, 2), FatalError);
}

TEST(Spool, ConcurrentClaimRaceIsExclusive)
{
    GridSpec spec = smallGrid();
    std::string root = freshDir("race");
    // 1 shard so all 8 claimants fight over the same files.
    farm::spoolGrid(spec, root, 1);
    farm::Spool sp(root);

    constexpr int kThreads = 8;
    std::vector<std::vector<std::uint64_t>> won(kThreads);
    std::vector<std::thread> threads;
    std::atomic<bool> go{false};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            std::string worker = "t" + std::to_string(t);
            while (true) {
                std::vector<std::string> names =
                    listDir(sp.jobsDir());
                if (names.empty())
                    return;
                for (const std::string &name : names) {
                    farm::SpoolEntry e;
                    if (!farm::parseSpoolName(name, e))
                        continue;
                    if (claimFile(sp.jobsDir() + "/" + name,
                                  sp.claimsDir() + "/" +
                                      farm::Spool::claimFileName(
                                          e.id, e.shard, worker)))
                        won[static_cast<std::size_t>(t)].push_back(
                            e.id);
                }
            }
        });
    }
    go.store(true);
    for (std::thread &t : threads)
        t.join();

    // Every job claimed exactly once across all threads; none dropped,
    // none double-claimed.
    std::vector<std::uint64_t> all;
    for (const auto &ids : won)
        all.insert(all.end(), ids.begin(), ids.end());
    EXPECT_EQ(all.size(), spec.jobs.size());
    EXPECT_EQ(std::set<std::uint64_t>(all.begin(), all.end()).size(),
              spec.jobs.size());
    EXPECT_TRUE(listDir(sp.jobsDir()).empty());
    EXPECT_EQ(listDir(sp.claimsDir()).size(), spec.jobs.size());
}

// ---------------------------------------------------------------------
// Workers, merge, shard invariance
// ---------------------------------------------------------------------

TEST(Farm, MergedManifestIsShardCountInvariant)
{
    for (int shards : {1, 2, 4}) {
        std::string root =
            freshDir("shards" + std::to_string(shards));
        farm::spoolGrid(smallGrid(), root, shards);

        // One worker per shard, run to drain; the last worker steals
        // whatever earlier ones left. Sequential execution is the
        // worst case for work-stealing coverage and keeps the test
        // deterministic.
        std::size_t total = 0;
        for (int s = 0; s < shards; ++s) {
            farm::WorkerOptions wo;
            wo.workerId = "w" + std::to_string(s);
            wo.shard = s;
            total += farm::runWorker(root, wo);
        }
        EXPECT_EQ(total, smallGrid().jobs.size());
        EXPECT_TRUE(farm::scanSpool(root).complete());

        std::string merged = root + "/merged.json";
        std::string farmDoc = root + "/farm.json";
        farm::mergeSpool(root, merged, farmDoc);

        // The whole point of the farm: bytes, not just values.
        EXPECT_EQ(slurp(merged), referenceManifest())
            << "shards=" << shards;

        // The provenance document carries the shard/worker story.
        JsonValue fdoc = parseJsonFile(farmDoc);
        EXPECT_EQ(fdoc.at("schema", "farm").asString("schema"),
                  "ddsim-farm-manifest-v1");
        EXPECT_EQ(fdoc.at("num_jobs", "farm").asUint("num_jobs"),
                  smallGrid().jobs.size());
        EXPECT_EQ(
            fdoc.at("shards", "farm").asArray("shards").size(),
            static_cast<std::size_t>(shards));
    }
}

TEST(Farm, LegacyBatchedGridMergesIdenticallyToSerial)
{
    // Grid specs written while the batched engine existed name it on
    // every point. It now parses as replay, so such a grid spools,
    // runs on two concurrent workers and merges byte-identical to the
    // serial reference — which is also the plain grid's document: the
    // batched engine always produced replay's results.
    std::string legacyPath = freshDir("legacy") + ".json";
    smallGrid().writeFile(legacyPath);
    std::string text = slurp(legacyPath);
    const std::string field = "\"warmup_insts\": 100,";
    std::size_t tagged = 0;
    for (std::size_t at = text.find(field); at != std::string::npos;
         at = text.find(field, at + field.size())) {
        text.insert(at + field.size(), " \"engine\": \"batched\",");
        ++tagged;
    }
    ASSERT_EQ(tagged, smallGrid().jobs.size());
    spit(legacyPath, text);

    GridSpec legacy = GridSpec::fromFile(legacyPath);
    for (const GridJob &job : legacy.jobs)
        EXPECT_EQ(job.engine, Engine::Replay) << job.id;

    std::string root = freshDir("legacy_spool");
    farm::spoolGrid(legacy, root, 2);
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
        workers.emplace_back([&root, w] {
            farm::WorkerOptions wo;
            wo.workerId = "w" + std::to_string(w);
            wo.shard = w;
            farm::runWorker(root, wo);
        });
    }
    for (std::thread &t : workers)
        t.join();
    ASSERT_TRUE(farm::scanSpool(root).complete());

    std::string merged = root + "/merged.json";
    farm::mergeSpool(root, merged, "");
    std::string serial = freshDir("legacy_serial") + ".json";
    farm::runSerial(legacy, 2, RetryPolicy{}, 0, 0.0, serial);
    EXPECT_EQ(slurp(merged), slurp(serial));
    EXPECT_EQ(slurp(merged), referenceManifest());
}

TEST(Farm, ResumeRerunsExactlyTheMissingJobs)
{
    const GridSpec spec = smallGrid();
    std::string root = freshDir("resume");
    farm::spoolGrid(spec, root, 2);
    farm::Spool sp(root);

    // Phase 1: a worker that "dies" after two jobs...
    farm::WorkerOptions wo;
    wo.workerId = "w0";
    wo.shard = 0;
    wo.maxJobs = 2;
    EXPECT_EQ(farm::runWorker(root, wo), 2u);

    // ...mid-claim on a third: strand one pending job in claims/, the
    // way a SIGKILL between claim and result would.
    std::vector<std::string> pending = listDir(sp.jobsDir());
    ASSERT_FALSE(pending.empty());
    farm::SpoolEntry stranded;
    ASSERT_TRUE(farm::parseSpoolName(pending.front(), stranded));
    ASSERT_TRUE(claimFile(
        sp.jobsDir() + "/" + pending.front(),
        sp.claimsDir() + "/" +
            farm::Spool::claimFileName(stranded.id, stranded.shard,
                                       "dead")));

    farm::SpoolStatus st = farm::scanSpool(root);
    EXPECT_EQ(st.done(), 2u);
    EXPECT_EQ(st.claimed, 1u);
    EXPECT_EQ(st.pending, spec.jobs.size() - 3);

    // Resume bookkeeping: exactly the stranded claim is requeued (the
    // still-pending files were never lost), and nothing completed is
    // touched.
    EXPECT_EQ(farm::requeueIncomplete(root, false), 1u);
    st = farm::scanSpool(root);
    EXPECT_EQ(st.claimed, 0u);
    EXPECT_EQ(st.pending, spec.jobs.size() - 2);

    // Phase 2: a fresh worker drains the rest — exactly n-2 jobs.
    farm::WorkerOptions wo2;
    wo2.workerId = "w1";
    EXPECT_EQ(farm::runWorker(root, wo2), spec.jobs.size() - 2);
    EXPECT_TRUE(farm::scanSpool(root).complete());

    // The interrupted-and-resumed farm merges to the same bytes as
    // the uninterrupted reference.
    std::string merged = root + "/merged.json";
    farm::mergeSpool(root, merged, root + "/farm.json");
    EXPECT_EQ(slurp(merged), referenceManifest());

    // Provenance shows the split: w0 ran 2, w1 ran the rest.
    JsonValue fdoc = parseJsonFile(root + "/farm.json");
    std::size_t byW0 = 0, byW1 = 0;
    for (const JsonValue &sh :
         fdoc.at("shards", "farm").asArray("shards")) {
        for (const JsonValue &job :
             sh.at("jobs", "shard").asArray("jobs")) {
            const std::string &worker =
                job.at("worker", "job").asString("worker");
            byW0 += worker == "w0";
            byW1 += worker == "w1";
        }
    }
    EXPECT_EQ(byW0, 2u);
    EXPECT_EQ(byW1, spec.jobs.size() - 2);
}

TEST(Farm, MergeRefusesAnIncompleteSpool)
{
    QuietGuard quiet;
    std::string root = freshDir("incomplete");
    farm::spoolGrid(smallGrid(), root, 1);
    farm::WorkerOptions wo;
    wo.maxJobs = 1;
    EXPECT_EQ(farm::runWorker(root, wo), 1u);
    EXPECT_THROW(
        farm::mergeSpool(root, root + "/merged.json", ""),
        FatalError);
}

// ---------------------------------------------------------------------
// Fault handling
// ---------------------------------------------------------------------

TEST(Farm, PersistentFaultQuarantinesIdenticallyToSerial)
{
    QuietGuard quiet;
    // Both the farm worker and the serial reference run under the
    // same injected persistent fault on every li point; the merged
    // documents must still be byte-identical — including the degraded
    // job table and the null run slots.
    robust::FaultInjector inj(1);
    inj.add({robust::FaultKind::JobPersistent, "li", "", 1});
    robust::ScopedFaultInjection scope(inj);

    std::string root = freshDir("persistent");
    farm::spoolGrid(smallGrid(), root, 2);
    farm::WorkerOptions wo;
    EXPECT_EQ(farm::runWorker(root, wo), smallGrid().jobs.size());

    farm::SpoolStatus st = farm::scanSpool(root);
    EXPECT_TRUE(st.complete());
    EXPECT_EQ(st.quarantined, 2u); // the two li points
    EXPECT_EQ(st.ok, 2u);

    std::string merged = root + "/merged.json";
    farm::mergeSpool(root, merged, root + "/farm.json");

    std::string refPath = freshDir("persistent_ref") + ".json";
    SweepOutcome ref = farm::runSerial(smallGrid(), 2, RetryPolicy{},
                                       0, 0.0, refPath);
    EXPECT_TRUE(ref.degraded);
    EXPECT_EQ(ref.numQuarantined, 2u);
    EXPECT_EQ(slurp(merged), slurp(refPath));

    // The per-job records carry the classified error.
    farm::Spool sp(root);
    farm::JobRecord rec = farm::jobRecordFromFile(
        sp.resultsDir() + "/" + farm::Spool::resultFileName(0));
    EXPECT_EQ(rec.status, JobStatus::Quarantined);
    EXPECT_EQ(rec.error.kind, "program");
    EXPECT_FALSE(rec.error.transient);
    EXPECT_EQ(rec.attempts, 1); // persistent: no retries burned
}

TEST(Farm, TransientFaultRecoversWithRetry)
{
    QuietGuard quiet;
    robust::FaultInjector inj(1);
    inj.add({robust::FaultKind::JobTransient, "compress", "", 1});
    robust::ScopedFaultInjection scope(inj);

    std::string root = freshDir("transient");
    farm::spoolGrid(smallGrid(), root, 1);
    farm::WorkerOptions wo;
    wo.retry.backoffMs = 0; // keep the test fast
    EXPECT_EQ(farm::runWorker(root, wo), smallGrid().jobs.size());

    farm::SpoolStatus st = farm::scanSpool(root);
    EXPECT_TRUE(st.complete());
    // The spec's empty notation matches both compress points; each
    // fails its first attempt and recovers on retry.
    EXPECT_EQ(st.quarantined, 0u);
    EXPECT_EQ(st.recovered, 2u);

    // Recovered jobs carry the recovered-from error in their record.
    farm::Spool sp(root);
    bool sawRecovered = false;
    for (const GridJob &job : smallGrid().jobs) {
        farm::JobRecord rec = farm::jobRecordFromFile(
            sp.resultsDir() + "/" +
            farm::Spool::resultFileName(job.id));
        if (rec.status != JobStatus::Recovered)
            continue;
        sawRecovered = true;
        EXPECT_GT(rec.attempts, 1);
        EXPECT_EQ(rec.error.kind, "io");
        EXPECT_TRUE(rec.error.transient);
    }
    EXPECT_TRUE(sawRecovered);
}

TEST(Farm, RetryQuarantinedRerunsQuarantinedPoints)
{
    QuietGuard quiet;
    std::string root = freshDir("retryq");
    {
        robust::FaultInjector inj(1);
        inj.add({robust::FaultKind::JobPersistent, "li", "", 1});
        robust::ScopedFaultInjection scope(inj);
        farm::spoolGrid(smallGrid(), root, 1);
        farm::WorkerOptions wo;
        farm::runWorker(root, wo);
    }
    EXPECT_EQ(farm::scanSpool(root).quarantined, 2u);

    // The "fault" is gone (injection scope closed); retrying the
    // quarantined points must requeue exactly those two and converge
    // on the clean reference bytes.
    EXPECT_EQ(farm::requeueIncomplete(root, true), 2u);
    farm::WorkerOptions wo;
    wo.workerId = "w1";
    EXPECT_EQ(farm::runWorker(root, wo), 2u);

    std::string merged = root + "/merged.json";
    farm::mergeSpool(root, merged, "");
    EXPECT_EQ(slurp(merged), referenceManifest());
}

// ---------------------------------------------------------------------
// Artifact integrity: checksummed spool files
// ---------------------------------------------------------------------

TEST(Farm, MergeQuarantinesACorruptResultManifest)
{
    QuietGuard quiet;
    std::string root = freshDir("corrupt_manifest");
    farm::spoolGrid(smallGrid(), root, 1);
    farm::WorkerOptions wo;
    EXPECT_EQ(farm::runWorker(root, wo), smallGrid().jobs.size());

    farm::Spool sp(root);
    std::string mpath =
        sp.resultsDir() + "/" + farm::Spool::manifestFileName(1);
    std::string bytes = slurp(mpath);
    bytes[bytes.size() / 2] ^= 0x01; // one flipped bit, anywhere
    spit(mpath, bytes);

    // The record's manifest_crc32 no longer matches, so the merge
    // refuses to splice: the pair is quarantined instead of a
    // silently-wrong merged document being produced.
    EXPECT_THROW(farm::mergeSpool(root, root + "/merged.json", ""),
                 CorruptArtifactError);
    EXPECT_FALSE(fileExists(mpath));
    EXPECT_FALSE(listDir(sp.corruptDir()).empty());

    // Resume re-runs exactly that point and converges on the
    // reference bytes.
    EXPECT_EQ(farm::requeueIncomplete(root, false), 1u);
    farm::WorkerOptions wo2;
    wo2.workerId = "w1";
    EXPECT_EQ(farm::runWorker(root, wo2), 1u);
    std::string merged = root + "/merged.json";
    farm::mergeSpool(root, merged, "");
    EXPECT_EQ(slurp(merged), referenceManifest());
}

TEST(Farm, MergeQuarantinesACorruptResultRecord)
{
    QuietGuard quiet;
    std::string root = freshDir("corrupt_record");
    farm::spoolGrid(smallGrid(), root, 1);
    farm::WorkerOptions wo;
    EXPECT_EQ(farm::runWorker(root, wo), smallGrid().jobs.size());

    farm::Spool sp(root);
    std::string rpath =
        sp.resultsDir() + "/" + farm::Spool::resultFileName(2);
    std::string text = slurp(rpath);
    auto pos = text.find("\"worker\": \"w0\"");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 14, "\"worker\": \"wX\"");
    spit(rpath, text);

    // The seal covers the whole payload, so even a "plausible" edit
    // is caught at read time, at scan time, and at merge time.
    EXPECT_THROW(farm::jobRecordFromFile(rpath),
                 CorruptArtifactError);
    EXPECT_EQ(farm::scanSpool(root).corrupt, 1u);
    EXPECT_THROW(farm::mergeSpool(root, root + "/merged.json", ""),
                 CorruptArtifactError);
    EXPECT_FALSE(fileExists(rpath));

    EXPECT_EQ(farm::requeueIncomplete(root, false), 1u);
    farm::WorkerOptions wo2;
    wo2.workerId = "w1";
    EXPECT_EQ(farm::runWorker(root, wo2), 1u);
    std::string merged = root + "/merged.json";
    farm::mergeSpool(root, merged, "");
    EXPECT_EQ(slurp(merged), referenceManifest());
}

TEST(Farm, WorkerRebuildsACorruptJobSpecFromTheGrid)
{
    QuietGuard quiet;
    std::string root = freshDir("corrupt_spec");
    farm::spoolGrid(smallGrid(), root, 1);

    farm::Spool sp(root);
    std::string jpath =
        sp.jobsDir() + "/" + farm::Spool::jobFileName(0, 0);
    std::string text = slurp(jpath);
    auto pos = text.find("\"workload\": \"li\"");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 16, "\"workload\": \"xx\"");
    spit(jpath, text);

    // The claimed spec fails its CRC, so the worker falls back to
    // grid.json — the source of truth — instead of running (or
    // crashing on) damaged parameters. Every point still completes
    // and the merged bytes are unaffected.
    farm::WorkerOptions wo;
    EXPECT_EQ(farm::runWorker(root, wo), smallGrid().jobs.size());
    std::string merged = root + "/merged.json";
    farm::mergeSpool(root, merged, "");
    EXPECT_EQ(slurp(merged), referenceManifest());
}

// ---------------------------------------------------------------------
// Quarantined placeholders are visibly degraded downstream
// ---------------------------------------------------------------------

TEST(Table, QuarantinedPlaceholderIsMarked)
{
    QuietGuard quiet;
    robust::FaultInjector inj(1);
    inj.add({robust::FaultKind::JobPersistent, "li", "", 1});
    robust::ScopedFaultInjection scope(inj);

    SweepOutcome out =
        farm::runSerial(smallGrid(), 2, RetryPolicy{}, 0, 0.0, "");
    ASSERT_TRUE(out.degraded);

    // The placeholder is flagged, and every cell derived from it says
    // so instead of printing the placeholder's zeros as data.
    ASSERT_TRUE(out.results[0].quarantined);   // li point
    ASSERT_FALSE(out.results[2].quarantined);  // compress point
    EXPECT_EQ(Table::cell(out.results[0], out.results[0].ipc),
              Table::kQuarantined);
    EXPECT_NE(Table::cell(out.results[2], out.results[2].ipc),
              Table::kQuarantined);

    Table t({"program", "ipc"});
    t.addRow({"li", Table::cell(out.results[0], out.results[0].ipc)});
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_NE(csv.str().find(Table::kQuarantined), std::string::npos);
}

// ---------------------------------------------------------------------
// Supervisor end-to-end (real ddsweep worker processes)
// ---------------------------------------------------------------------

#ifdef DDSIM_DDSWEEP

TEST(Supervisor, RunsAFarmOfWorkerProcesses)
{
    std::string root = freshDir("super");
    farm::spoolGrid(smallGrid(), root, 2);

    farm::SupervisorOptions sup;
    sup.exePath = DDSIM_DDSWEEP;
    sup.workers = 2;
    farm::SpoolStatus st = farm::superviseFarm(root, sup);
    EXPECT_TRUE(st.complete());
    EXPECT_EQ(st.quarantined, 0u);

    std::string merged = root + "/merged.json";
    farm::mergeSpool(root, merged, root + "/farm.json");
    EXPECT_EQ(slurp(merged), referenceManifest());
}

TEST(Supervisor, CrashIsolationQuarantinesTheKillerJob)
{
    QuietGuard quiet;
    std::string root = freshDir("crash");
    farm::spoolGrid(smallGrid(), root, 2);

    // Every li attempt aborts the whole worker process. The farm must
    // survive: respawn workers, finish the compress points, and
    // crash-quarantine the li points instead of respawning forever.
    farm::SupervisorOptions sup;
    sup.exePath = DDSIM_DDSWEEP;
    sup.workers = 2;
    sup.crashQuarantineAfter = 2;
    sup.respawnLimit = 16;
    sup.workerArgs = {"--inject=crash:li:"};

    farm::SpoolStatus st = farm::superviseFarm(root, sup);
    EXPECT_TRUE(st.complete());
    EXPECT_EQ(st.quarantined, 2u);
    EXPECT_EQ(st.ok, 2u);

    farm::Spool sp(root);
    farm::JobRecord rec = farm::jobRecordFromFile(
        sp.resultsDir() + "/" + farm::Spool::resultFileName(0));
    EXPECT_EQ(rec.status, JobStatus::Quarantined);
    EXPECT_EQ(rec.error.kind, "crash");
    EXPECT_EQ(rec.attempts, sup.crashQuarantineAfter);

    // The merged manifest is a valid degraded sweep document with
    // null slots at the crashed points.
    std::string merged = root + "/merged.json";
    farm::mergeSpool(root, merged, root + "/farm.json");
    JsonValue doc = parseJsonFile(merged);
    EXPECT_TRUE(doc.at("degraded", "sweep").asBool("degraded"));
    const auto &runs = doc.at("runs", "sweep").asArray("runs");
    EXPECT_TRUE(runs[0].isNull());
    EXPECT_FALSE(runs[2].isNull());
}

TEST(Supervisor, SigtermDrainsTheWorkerCleanly)
{
    QuietGuard quiet;
    std::string root = freshDir("drain");
    farm::spoolGrid(smallGrid(), root, 1);

    // The injected hang keeps the worker inside its first li point
    // for ~2s, guaranteeing the SIGTERM lands mid-job. Drain
    // semantics: finish that point, persist it, release the claim,
    // exit 0.
    pid_t pid = spawnProcess({DDSIM_DDSWEEP, "worker",
                              "--spool=" + root, "--worker=w0",
                              "--inject=hang:li::2"});
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    killProcess(pid, SIGTERM);
    ProcessExit ex = waitProcess(pid);
    EXPECT_TRUE(ex.ok()) << ex.describe();

    // No stranded claim, no torn artifact: whatever completed is
    // durable, the rest is still queued for a successor.
    farm::Spool sp(root);
    EXPECT_TRUE(listDir(sp.claimsDir()).empty());
    EXPECT_EQ(farm::requeueIncomplete(root, false), 0u);

    farm::WorkerOptions wo;
    wo.workerId = "w1";
    farm::runWorker(root, wo);
    std::string merged = root + "/merged.json";
    farm::mergeSpool(root, merged, "");
    EXPECT_EQ(slurp(merged), referenceManifest());
}

TEST(Supervisor, StalledWorkerLosesItsLeaseAndThePointCompletes)
{
    QuietGuard quiet;
    std::string root = freshDir("stall");
    farm::spoolGrid(smallGrid(), root, 2);

    // w0 SIGSTOPs itself after its first claim: its heartbeat
    // freezes, the lease goes stale, and the supervisor must SIGKILL
    // it and hand the point to another worker. Nothing may end up
    // quarantined — a wedged worker is not a bad point.
    farm::SupervisorOptions sup;
    sup.exePath = DDSIM_DDSWEEP;
    sup.workers = 2;
    sup.leaseSecs = 1.0;
    sup.workerArgs = {"--stall-worker=w0"};

    farm::SpoolStatus st = farm::superviseFarm(root, sup);
    EXPECT_TRUE(st.complete());
    EXPECT_EQ(st.quarantined, 0u);
    EXPECT_EQ(st.ok, smallGrid().jobs.size());

    std::string merged = root + "/merged.json";
    farm::mergeSpool(root, merged, root + "/farm.json");
    EXPECT_EQ(slurp(merged), referenceManifest());

    // Provenance: the stalled w0 completed nothing; other workers
    // picked up its share.
    JsonValue fdoc = parseJsonFile(root + "/farm.json");
    for (const JsonValue &sh :
         fdoc.at("shards", "farm").asArray("shards"))
        for (const JsonValue &job :
             sh.at("jobs", "shard").asArray("jobs"))
            EXPECT_NE(job.at("worker", "job").asString("worker"),
                      "w0");
}

TEST(Supervisor, HungJobIsQuarantinedByTheWallClockWatchdog)
{
    QuietGuard quiet;
    std::string root = freshDir("hung");
    farm::spoolGrid(smallGrid(), root, 2);

    // Every li attempt sleeps for 600s — far past the per-job wall
    // clock. The watchdog must SIGKILL the holding workers and
    // quarantine exactly the li points; the compress points complete.
    farm::SupervisorOptions sup;
    sup.exePath = DDSIM_DDSWEEP;
    sup.workers = 2;
    sup.jobWallSecs = 1.5;
    sup.workerArgs = {"--inject=hang:li::600"};

    farm::SpoolStatus st = farm::superviseFarm(root, sup);
    EXPECT_TRUE(st.complete());
    EXPECT_EQ(st.quarantined, 2u);
    EXPECT_EQ(st.ok, 2u);

    farm::Spool sp(root);
    farm::JobRecord rec = farm::jobRecordFromFile(
        sp.resultsDir() + "/" + farm::Spool::resultFileName(0));
    EXPECT_EQ(rec.status, JobStatus::Quarantined);
    EXPECT_EQ(rec.error.kind, "hung");
    EXPECT_FALSE(rec.error.transient);
}

#endif // DDSIM_DDSWEEP

// ---------------------------------------------------------------------
// Subprocess + JSON parser primitives the farm stands on
// ---------------------------------------------------------------------

TEST(Subprocess, ExitStatusRoundTrips)
{
    ProcessExit ex =
        waitProcess(spawnProcess({"/bin/sh", "-c", "exit 7"}));
    EXPECT_TRUE(ex.exited);
    EXPECT_EQ(ex.code, 7);
    EXPECT_FALSE(ex.ok());
    EXPECT_FALSE(ex.crashed());

    ex = waitProcess(spawnProcess({"/bin/sh", "-c", "kill -9 $$"}));
    EXPECT_TRUE(ex.signaled);
    EXPECT_EQ(ex.sig, 9);
    EXPECT_TRUE(ex.crashed());

    // Exec failure surfaces as exit 127, not a hang or a throw.
    ex = waitProcess(spawnProcess({"/nonexistent/binary"}));
    EXPECT_TRUE(ex.exited);
    EXPECT_EQ(ex.code, 127);
}

TEST(JsonParse, ParsesTheWriterDialect)
{
    JsonValue v = parseJson(
        "{\"a\": 1, \"b\": -2.5, \"c\": [true, null, \"x\\n\"],"
        " \"big\": 18446744073709551615}");
    EXPECT_EQ(v.at("a", "doc").asUint("a"), 1u);
    EXPECT_DOUBLE_EQ(v.at("b", "doc").asDouble("b"), -2.5);
    const auto &arr = v.at("c", "doc").asArray("c");
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_TRUE(arr[0].asBool("c0"));
    EXPECT_TRUE(arr[1].isNull());
    EXPECT_EQ(arr[2].asString("c2"), "x\n");
    // Beyond int64: still a number (double), not an integer.
    EXPECT_FALSE(v.at("big", "doc").isInteger);

    EXPECT_THROW(parseJson("{\"a\": }"), JsonParseError);
    EXPECT_THROW(parseJson("[1, 2,]"), JsonParseError);
    EXPECT_THROW(parseJson("{} extra"), JsonParseError);
    EXPECT_THROW(parseJson("\"unterminated"), JsonParseError);
    EXPECT_THROW(v.at("missing", "doc"), JsonParseError);
    EXPECT_THROW(v.at("a", "doc").asString("a"), JsonParseError);
}

TEST(JsonParse, RoundTripsAGridJobThroughTheWriter)
{
    GridSpec spec = smallGrid();
    std::ostringstream os;
    {
        JsonWriter w(os);
        writeGridJobJson(w, spec.jobs[1]);
    }
    GridJob back = gridJobFromJson(parseJson(os.str()));
    EXPECT_EQ(back.id, spec.jobs[1].id);
    EXPECT_EQ(back.workload, spec.jobs[1].workload);
    EXPECT_EQ(back.cfg.notation(), spec.jobs[1].cfg.notation());
}
