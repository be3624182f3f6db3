#include "sim/sweep.hh"

#include <algorithm>
#include <chrono>
#include <new>
#include <ostream>
#include <thread>
#include <utility>

#include "obs/manifest.hh"
#include "obs/version.hh"
#include "util/atomic_file.hh"
#include "util/json.hh"
#include "util/log.hh"
#include "util/str.hh"

namespace ddsim::sim {

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Recovered: return "recovered";
      case JobStatus::Quarantined: return "quarantined";
    }
    return "?";
}

ErrorClass
classifyError(const std::exception_ptr &e)
{
    try {
        std::rethrow_exception(e);
    } catch (const SimError &se) {
        return {se.kind(), se.what(), se.transient()};
    } catch (const std::bad_alloc &ba) {
        // Memory pressure in a loaded sweep: concurrent jobs finish
        // and free theirs, so a retry has a real chance.
        return {"alloc", ba.what(), true};
    } catch (const std::exception &ex) {
        return {"unknown", ex.what(), false};
    } catch (...) {
        return {"unknown", "non-exception throw", false};
    }
}

void
writeErrorField(JsonWriter &w, const ErrorClass &e)
{
    w.key("error");
    if (e.kind.empty()) {
        w.valueNull();
        return;
    }
    w.beginObject();
    w.field("kind", e.kind);
    w.field("message", e.message);
    w.field("transient", e.transient);
    w.endObject();
}

SweepRunner::SweepRunner(unsigned workers) : pool(workers) {}

SweepRunner::~SweepRunner()
{
    // Jobs still in flight write into `slots`, which must outlive
    // them: drain the pool before the deque is destroyed.
    pool.wait();
}

JobRun
runJob(SweepJob job, TraceCache &traces, const RetryPolicy &policy)
{
    // A job replays the shared recording only if it brings no stream
    // of its own (recording an external trace's reconstructed program
    // would be wrong) and its engine replays: the live engine would
    // ignore the trace, so fetching one would only execute the
    // program an extra time.
    const bool share = !job.opts.trace && !job.opts.externalTrace &&
                       job.opts.engine != Engine::Live;
    // Bounded retry with exponential backoff. Only transiently
    // classified failures retry; simulation is deterministic, so
    // a deadlock or config error would just fail identically
    // again, while an I/O hiccup or allocation failure may pass.
    JobRun jr;
    std::uint64_t backoff = policy.backoffMs;
    for (int attempt = 1;; ++attempt) {
        jr.outcome.attempts = attempt;
        try {
            if (share)
                job.opts.trace =
                    traces.get(job.program, fetchCap(job.opts));
            jr.result = run(*job.program, job.cfg, job.opts);
            jr.outcome.status =
                attempt > 1 ? JobStatus::Recovered : JobStatus::Ok;
            return jr;
        } catch (...) {
            std::exception_ptr e = std::current_exception();
            jr.outcome.error = classifyError(e);
            if (!jr.outcome.error.transient ||
                attempt >= policy.maxAttempts) {
                jr.outcome.status = JobStatus::Quarantined;
                jr.failure = e;
                return jr;
            }
        }
        if (backoff > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff));
        backoff = std::min(backoff * 2, policy.maxBackoffMs);
    }
}

std::size_t
SweepRunner::submit(SweepJob job)
{
    if (!job.program)
        panic("SweepRunner::submit: job has no program");
    std::size_t index = slots.size();
    slots.emplace_back();
    // deque never relocates elements, so this pointer stays valid
    // while submit() grows the grid under the workers.
    JobRun *slot = &slots.back();
    // Trace resolution runs on the worker, not here: the first job to
    // reach a program records its trace while workers on other
    // programs keep simulating.
    RetryPolicy policy = retryPolicy;
    pool.submit([slot, &traces = traces, policy,
                 job = std::move(job)]() mutable {
        *slot = runJob(std::move(job), traces, policy);
    });
    return index;
}

std::size_t
SweepRunner::submit(std::shared_ptr<const prog::Program> program,
                    const config::MachineConfig &cfg,
                    const RunOptions &opts)
{
    return submit(SweepJob{std::move(program), cfg, opts});
}

void
SweepOutcome::add(JobOutcome job, SimResult result)
{
    if (job.status == JobStatus::Quarantined) {
        ++numQuarantined;
        degraded = true;
        result = SimResult{};
        result.quarantined = true;
    } else if (job.status == JobStatus::Recovered) {
        ++numRecovered;
    }
    results.push_back(std::move(result));
    jobs.push_back(std::move(job));
}

SweepOutcome
SweepRunner::collectOutcome()
{
    pool.wait();
    SweepOutcome out;
    out.results.reserve(slots.size());
    out.jobs.reserve(slots.size());
    for (JobRun &slot : slots)
        out.add(std::move(slot.outcome), std::move(slot.result));
    slots.clear();
    return out;
}

void
writeSweepManifest(const std::string &title, const SweepOutcome &outcome,
                   std::ostream &os)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", obs::kSweepManifestSchema);
    w.field("title", title);
    w.key("generator");
    w.beginObject();
    w.field("name", obs::simulatorName());
    w.field("version", obs::simulatorVersion());
    w.field("git", obs::gitDescribe());
    w.endObject();
    w.field("num_runs",
            static_cast<std::uint64_t>(outcome.results.size()));
    w.field("degraded", outcome.degraded);
    w.field("num_quarantined",
            static_cast<std::uint64_t>(outcome.numQuarantined));
    w.field("num_recovered",
            static_cast<std::uint64_t>(outcome.numRecovered));
    w.key("jobs");
    w.beginArray();
    for (std::size_t i = 0; i < outcome.jobs.size(); ++i) {
        const JobOutcome &jo = outcome.jobs[i];
        w.beginObject();
        w.field("index", static_cast<std::uint64_t>(i));
        w.field("status", jobStatusName(jo.status));
        w.field("attempts", static_cast<std::uint64_t>(jo.attempts));
        writeErrorField(w, jo.error);
        w.endObject();
    }
    w.endArray();
    w.key("runs");
    w.beginArray();
    for (const SimResult &r : outcome.results) {
        if (r.manifestJson.empty())
            w.valueNull();
        else
            w.rawValue(trim(r.manifestJson));
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

void
writeSweepManifestFile(const std::string &title,
                       const SweepOutcome &outcome,
                       const std::string &path)
{
    AtomicFile file(path);
    writeSweepManifest(title, outcome, file.stream());
    file.commit();
}

std::shared_ptr<const vm::RecordedTrace>
TraceCache::get(const std::shared_ptr<const prog::Program> &program,
                std::uint64_t maxInsts)
{
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mu);
        std::shared_ptr<Entry> &slot =
            cache[Key{program.get(), maxInsts}];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
    }
    // Record outside the map lock: only callers wanting this same
    // trace wait; other programs record concurrently.
    std::call_once(entry->once, [&] {
        entry->pin = program;
        entry->trace = std::make_shared<const vm::RecordedTrace>(
            vm::RecordedTrace::record(*program, maxInsts));
        entry->bytes =
            entry->trace->wordCount() * sizeof(std::uint32_t);
    });
    {
        std::lock_guard<std::mutex> lock(mu);
        entry->lastUse = ++useClock;
        if (!entry->counted) {
            // First completion of this recording (a re-recorded
            // evictee counts again — that is what recordings()
            // observes).
            entry->counted = true;
            totalBytes += entry->bytes;
            ++numRecorded;
        }
        evictLocked(entry.get());
    }
    return entry->trace;
}

void
TraceCache::evictLocked(const Entry *keep)
{
    if (byteBudget == 0)
        return;
    while (totalBytes > byteBudget) {
        auto victim = cache.end();
        for (auto it = cache.begin(); it != cache.end(); ++it) {
            Entry *e = it->second.get();
            // Only completed recordings carry counted bytes; never
            // evict the entry being returned to the caller.
            if (e == keep || !e->counted)
                continue;
            if (victim == cache.end() ||
                e->lastUse < victim->second->lastUse)
                victim = it;
        }
        if (victim == cache.end())
            return; // Only the kept (possibly over-budget) trace left.
        totalBytes -= victim->second->bytes;
        // Jobs still replaying the evicted trace hold their own
        // shared_ptr; only the cache reference goes away.
        cache.erase(victim);
    }
}

std::size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return cache.size();
}

std::size_t
TraceCache::recordings() const
{
    std::lock_guard<std::mutex> lock(mu);
    return numRecorded;
}

void
TraceCache::setByteBudget(std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(mu);
    byteBudget = bytes;
    evictLocked(nullptr);
}

std::size_t
TraceCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return totalBytes;
}

std::shared_ptr<const prog::Program>
ProgramCache::get(const std::string &key, const Builder &build)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(key);
    if (it == cache.end()) {
        it = cache
                 .emplace(key, std::make_shared<const prog::Program>(
                                   build()))
                 .first;
    }
    return it->second;
}

std::size_t
ProgramCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return cache.size();
}

} // namespace ddsim::sim
