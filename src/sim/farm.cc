#include "sim/farm.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include <unistd.h>

#include "io/vfs.hh"
#include "obs/version.hh"
#include "util/atomic_file.hh"
#include "util/crc32.hh"
#include "util/file_claim.hh"
#include "util/json.hh"
#include "util/json_parse.hh"
#include "util/log.hh"
#include "util/subprocess.hh"
#include "vm/xtrace.hh"

namespace ddsim::sim::farm {

namespace {

/** Cache key under which workers and the serial reference share one
 *  built program per distinct (workload, scale, seed, annotate,
 *  trace file) — annotation rewrites hint bits and an external trace
 *  replaces the program wholesale, so such jobs must not share a
 *  Program. */
std::string
programKey(const GridJob &job)
{
    return format("%s@%llu#%llu!%s|%s", job.workload.c_str(),
                  static_cast<unsigned long long>(job.scale),
                  static_cast<unsigned long long>(job.seed),
                  job.annotate.c_str(), job.tracePath.c_str());
}

/**
 * The one GridJob -> SweepJob mapping. Farm workers and runSerial
 * (the benches and `ddsweep serial`) all build a point here, so they
 * cannot drift apart — byte-identical merges depend on it. A worker
 * adds only its blackboxPath (runJob adds the shared trace). The
 * program is the decoded external trace when the point names one
 * (loadCached, so one worker process decodes each file once), the
 * registry build otherwise.
 */
SweepJob
gridSweepJob(const GridJob &job, ProgramCache &programs,
             std::uint64_t cycleBudget, double wallBudget)
{
    SweepJob sj;
    if (!job.tracePath.empty()) {
        sj.opts.externalTrace = vm::ExternalTrace::loadCached(job.tracePath);
        sj.program = sj.opts.externalTrace->sharedProgram();
    } else {
        sj.program = programs.get(programKey(job),
                                  [&] { return buildGridProgram(job); });
    }
    sj.cfg = job.cfg;
    sj.opts.maxInsts = job.maxInsts;
    sj.opts.warmupInsts = job.warmupInsts;
    sj.opts.engine = job.engine;
    sj.opts.sampling = job.sampling;
    sj.opts.maxCycles = cycleBudget;
    sj.opts.maxWallSeconds = wallBudget;
    sj.opts.captureManifest = true;
    sj.opts.canonicalManifest = true;
    return sj;
}

bool
allDigits(std::string_view s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

/** "job-000012.json" (a result record) -> id. */
bool
parseResultName(const std::string &name, std::uint64_t &id)
{
    if (name.rfind("job-", 0) != 0)
        return false;
    std::string::size_type dot = name.find('.');
    if (dot == std::string::npos || name.substr(dot) != ".json")
        return false;
    std::string_view digits(name.data() + 4, dot - 4);
    if (!allDigits(digits))
        return false;
    id = 0;
    for (char c : digits)
        id = id * 10 + static_cast<std::uint64_t>(c - '0');
    return true;
}

JobStatus
jobStatusFromName(const std::string &name, const std::string &where)
{
    for (JobStatus s : {JobStatus::Ok, JobStatus::Recovered,
                        JobStatus::Quarantined}) {
        if (name == jobStatusName(s))
            return s;
    }
    fatal("%s: unknown job status '%s'", where.c_str(), name.c_str());
}

// ---------------------------------------------------------------------
// CRC32 sealing
//
// Checksummed wrappers share one layout: the wrapper object opens
// with "schema", then a "crc32" field holding an 8-hex-char seal,
// then the payload object ("job" in spec files, "record" in result
// records) as the final member. The seal covers exactly the payload
// object's bytes, so it can be computed after serialization and
// patched over a fixed-width placeholder without re-serializing —
// and verified by any reader (including the Python validator, via
// binascii.crc32) from the raw text alone.
// ---------------------------------------------------------------------

constexpr const char *kCrcPlaceholder = "00000000";
constexpr const char *kCrcMarker = "\"crc32\": \"";

/** Byte range [begin, end) of the payload object "<key>": {...}. */
bool
crcPayloadRange(const std::string &text, const char *key,
                std::size_t &begin, std::size_t &end)
{
    const std::string marker = std::string("\"") + key + "\": ";
    const std::string::size_type pos = text.find(marker);
    if (pos == std::string::npos)
        return false;
    begin = pos + marker.size();
    if (begin >= text.size() || text[begin] != '{')
        return false;
    // The payload is the wrapper's last member: its closing brace is
    // the second-to-last '}' in the document.
    const std::string::size_type outer = text.rfind('}');
    if (outer == std::string::npos || outer == 0)
        return false;
    const std::string::size_type inner = text.rfind('}', outer - 1);
    if (inner == std::string::npos || inner < begin)
        return false;
    end = inner + 1;
    return true;
}

/** Patch the placeholder "crc32" field with the payload's CRC32. */
std::string
sealCrc(std::string text, const char *payloadKey)
{
    std::size_t begin = 0, end = 0;
    if (!crcPayloadRange(text, payloadKey, begin, end))
        panic("sealCrc: no '%s' payload in artifact", payloadKey);
    const std::string::size_type pos = text.find(kCrcMarker);
    if (pos == std::string::npos)
        panic("sealCrc: artifact has no crc32 placeholder");
    // Note "\"crc32\": \"" cannot match the manifest_crc32 field (its
    // key is preceded by '_', not '"'), so find() is the seal.
    text.replace(pos + std::strlen(kCrcMarker), 8,
                 crc32Hex(crc32(std::string_view(text).substr(
                     begin, end - begin))));
    return text;
}

/** Does @p text carry @p schema and a CRC32 seal matching its
 *  payload? False on any damage — truncation, bit flips, a torn
 *  write, the wrong schema generation. */
bool
artifactIntact(const std::string &text, const char *payloadKey,
               const char *schema)
{
    if (text.find(std::string("\"schema\": \"") + schema + "\"") ==
        std::string::npos)
        return false;
    std::size_t begin = 0, end = 0;
    if (!crcPayloadRange(text, payloadKey, begin, end))
        return false;
    const std::string::size_type pos = text.find(kCrcMarker);
    if (pos == std::string::npos)
        return false;
    const std::string::size_type at = pos + std::strlen(kCrcMarker);
    if (at + 8 > text.size())
        return false;
    return text.compare(at, 8,
                        crc32Hex(crc32(std::string_view(text).substr(
                            begin, end - begin)))) == 0;
}

/** The sealed CRC a wrapper document embeds ("00000000" if none). */
std::string
embeddedCrc(const std::string &text)
{
    const std::string::size_type pos = text.find(kCrcMarker);
    if (pos == std::string::npos ||
        pos + std::strlen(kCrcMarker) + 8 > text.size())
        return kCrcPlaceholder;
    return text.substr(pos + std::strlen(kCrcMarker), 8);
}

// ---------------------------------------------------------------------
// Artifact writers and verified readers
// ---------------------------------------------------------------------

/** Serialize one CRC-sealed ddsim-job-v2 spec document. */
std::string
renderJobFile(const GridJob &job)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.field("schema", kJobSchema);
        w.field("crc32", kCrcPlaceholder);
        w.key("job");
        writeGridJobJson(w, job);
        w.endObject();
    }
    os << '\n';
    return sealCrc(os.str(), "job");
}

void
writeJobFile(const Spool &sp, const GridJob &job, int shard)
{
    writeFileTextAtomic(sp.jobsDir() + "/" +
                            Spool::jobFileName(job.id, shard),
                        renderJobFile(job));
}

/**
 * Parse and verify one spooled job spec.
 * @throws CorruptArtifactError on schema/CRC damage or an id clash.
 */
GridJob
parseJobSpecText(const std::string &text, const std::string &where,
                 std::uint64_t expectId)
{
    if (!artifactIntact(text, "job", kJobSchema))
        throw CorruptArtifactError(
            where, format("job spec '%s' failed its schema/CRC32 "
                          "check",
                          where.c_str()));
    GridJob job = gridJobFromJson(parseJson(text).at("job", "job spec"));
    if (job.id != expectId)
        throw CorruptArtifactError(
            where,
            format("'%s' holds id %llu but is spooled as job %llu",
                   where.c_str(),
                   static_cast<unsigned long long>(job.id),
                   static_cast<unsigned long long>(expectId)));
    return job;
}

/** Serialize and atomically write one ddsim-job-result-v2 record. */
void
writeJobRecord(const Spool &sp, const JobRecord &rec)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.field("schema", kJobResultSchema);
        w.field("crc32", kCrcPlaceholder);
        w.key("record");
        w.beginObject();
        w.field("id", rec.id);
        w.field("status", jobStatusName(rec.status));
        w.field("attempts", static_cast<std::uint64_t>(rec.attempts));
        writeErrorField(w, rec.error);
        w.field("worker", rec.worker);
        w.field("shard", rec.shard);
        w.field("wall_seconds", rec.wallSeconds);
        if (rec.manifestCrc.empty()) {
            w.key("manifest_crc32");
            w.valueNull();
        } else {
            w.field("manifest_crc32", rec.manifestCrc);
        }
        w.endObject();
        w.endObject();
    }
    os << '\n';
    writeFileTextAtomic(
        sp.resultsDir() + "/" + Spool::resultFileName(rec.id),
        sealCrc(os.str(), "record"));
}

/** Serialize one ddsim-claim-v1 lease document. @p jobCrc is the
 *  sealed CRC of the spec this claim replaced (provenance only — the
 *  spec itself is always recoverable from grid.json). */
std::string
renderClaimDoc(const SpoolEntry &e, const std::string &worker,
               const std::string &jobCrc)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.field("schema", kClaimSchema);
        w.field("id", e.id);
        w.field("shard", e.shard);
        w.field("worker", worker);
        w.field("pid", static_cast<std::int64_t>(::getpid()));
        w.field("acquired_unix",
                static_cast<std::uint64_t>(std::time(nullptr)));
        w.field("job_crc32", jobCrc);
        w.endObject();
    }
    os << '\n';
    return os.str();
}

/** Number of grid points in the spool, without a full spec parse. */
std::size_t
spoolNumJobs(const Spool &sp)
{
    JsonValue doc = parseJsonFile(sp.gridPath());
    return doc.at("num_jobs", "grid").asUint("grid.num_jobs");
}

/** Does the manifest file match the CRC its record promised? Fills
 *  @p bytes with the manifest text when it does. */
bool
manifestMatchesRecord(const Spool &sp, const JobRecord &rec,
                      std::string &bytes)
{
    const std::string path =
        sp.resultsDir() + "/" + Spool::manifestFileName(rec.id);
    if (!fileExists(path))
        return false;
    bytes = readFileText(path);
    return crc32Hex(crc32(bytes)) == rec.manifestCrc;
}

/** Move one artifact into corrupt/ (never deleted: the damaged bytes
 *  are the evidence). */
void
quarantineArtifact(const Spool &sp, const std::string &dir,
                   const std::string &name, const char *what)
{
    ensureDir(sp.corruptDir());
    const std::string dst = sp.corruptDir() + "/" + name;
    removeFileIfExists(dst);
    if (claimFile(dir + "/" + name, dst))
        warn("spool '%s': quarantined corrupt %s '%s' into corrupt/",
             sp.root.c_str(), what, name.c_str());
}

/**
 * Fill @p ci's pid and job age from the ddsim-claim-v1 lease document
 * at @p claimPath. Both keep their "unknown" defaults in the pre-lease
 * window (the claim still holds the job spec) or when the file
 * vanished: then the heartbeat age is all there is to know.
 */
void
readLease(const std::string &claimPath, ClaimInfo &ci)
{
    try {
        JsonValue doc = parseJson(readFileText(claimPath));
        const std::string w = "claim";
        if (doc.at("schema", w).asString(w + ".schema") != kClaimSchema)
            return;
        ci.pid = static_cast<pid_t>(doc.at("pid", w).asInt(w + ".pid"));
        ci.jobAge = std::difftime(
            std::time(nullptr),
            static_cast<std::time_t>(doc.at("acquired_unix", w)
                                         .asUint(w + ".acquired_unix")));
    } catch (...) {
    }
}

// ---------------------------------------------------------------------
// Worker-side liveness machinery
// ---------------------------------------------------------------------

/** Refreshes the mtime of every held claim at a quarter of the lease
 *  interval, so a live worker's lease never expires. Touches go
 *  through io::vfs() but are absorbed on failure — a heartbeat must
 *  never take the worker down. */
class HeartbeatThread
{
  public:
    explicit HeartbeatThread(double leaseSecs)
        : interval_(leaseSecs / 4.0)
    {
        if (leaseSecs > 0)
            thread_ = std::thread([this] { loop(); });
    }

    ~HeartbeatThread()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> g(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    void hold(const std::string &path)
    {
        if (!thread_.joinable())
            return;
        std::lock_guard<std::mutex> g(mutex_);
        held_.insert(path);
    }

    void release(const std::string &path)
    {
        if (!thread_.joinable())
            return;
        std::lock_guard<std::mutex> g(mutex_);
        held_.erase(path);
    }

  private:
    void loop()
    {
        std::unique_lock<std::mutex> lk(mutex_);
        while (!stop_) {
            cv_.wait_for(lk, std::chrono::duration<double>(interval_),
                         [this] { return stop_; });
            if (stop_)
                break;
            for (const std::string &path : held_) {
                try {
                    io::vfs().touchFile(path);
                } catch (...) {
                    // Including SimulatedCrash: the main thread hits
                    // the dead flag itself on its next I/O op.
                }
            }
        }
    }

    double interval_;
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::set<std::string> held_;
};

/** SIGTERM sets this; the worker loop drains at the next claim
 *  boundary. sig_atomic_t + no locking: handler-safe by fiat. */
volatile std::sig_atomic_t g_drainRequested = 0;

void
installDrainHandler()
{
    struct sigaction sa = {};
    sa.sa_handler = +[](int) { g_drainRequested = 1; };
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGTERM, &sa, nullptr);
}

} // namespace

std::string
Spool::jobFileName(std::uint64_t id, int shard)
{
    return format("job-%06llu.s%03d.json",
                  static_cast<unsigned long long>(id), shard);
}

std::string
Spool::claimFileName(std::uint64_t id, int shard,
                     const std::string &worker)
{
    return format("job-%06llu.s%03d.%s.json",
                  static_cast<unsigned long long>(id), shard,
                  worker.c_str());
}

std::string
Spool::resultFileName(std::uint64_t id)
{
    return format("job-%06llu.json",
                  static_cast<unsigned long long>(id));
}

std::string
Spool::manifestFileName(std::uint64_t id)
{
    return format("job-%06llu.manifest.json",
                  static_cast<unsigned long long>(id));
}

std::string
Spool::blackboxFileName(std::uint64_t id)
{
    return format("job-%06llu.json",
                  static_cast<unsigned long long>(id));
}

bool
parseSpoolName(const std::string &name, SpoolEntry &out)
{
    if (name.rfind("job-", 0) != 0)
        return false;
    std::vector<std::string> tokens;
    std::string::size_type start = 0;
    while (true) {
        std::string::size_type dot = name.find('.', start);
        if (dot == std::string::npos) {
            tokens.push_back(name.substr(start));
            break;
        }
        tokens.push_back(name.substr(start, dot - start));
        start = dot + 1;
    }
    if (tokens.size() != 3 && tokens.size() != 4)
        return false;
    if (tokens.back() != "json")
        return false;
    std::string_view digits(tokens[0].data() + 4,
                            tokens[0].size() - 4);
    if (!allDigits(digits))
        return false;
    if (tokens[1].size() < 2 || tokens[1][0] != 's' ||
        !allDigits(std::string_view(tokens[1]).substr(1)))
        return false;

    SpoolEntry e;
    e.id = 0;
    for (char c : digits)
        e.id = e.id * 10 + static_cast<std::uint64_t>(c - '0');
    e.shard = 0;
    for (std::size_t i = 1; i < tokens[1].size(); ++i)
        e.shard = e.shard * 10 + (tokens[1][i] - '0');
    if (tokens.size() == 4) {
        if (tokens[2].empty())
            return false;
        e.worker = tokens[2];
    }
    out = e;
    return true;
}

void
spoolGrid(const GridSpec &spec, const std::string &root, int numShards)
{
    spec.validate();
    if (numShards < 1)
        numShards = 1;
    if (numShards > 999)
        fatal("spoolGrid: %d shards exceeds the spool name format "
              "(max 999)",
              numShards);

    Spool sp(root);
    ensureDir(sp.root);
    ensureDir(sp.jobsDir());
    ensureDir(sp.claimsDir());
    ensureDir(sp.resultsDir());
    ensureDir(sp.blackboxDir());
    if (fileExists(sp.gridPath()))
        fatal("spool '%s' already holds a grid — spooling is for "
              "fresh directories (resume an existing spool instead)",
              root.c_str());
    for (const std::string &dir :
         {sp.jobsDir(), sp.claimsDir(), sp.resultsDir()}) {
        if (!listDir(dir).empty())
            fatal("spool '%s' has stale content in '%s'", root.c_str(),
                  dir.c_str());
    }

    spec.writeFile(sp.gridPath());
    for (const GridJob &job : spec.jobs)
        writeJobFile(sp, job,
                     static_cast<int>(
                         job.id % static_cast<std::uint64_t>(numShards)));
}

JobRecord
jobRecordFromFile(const std::string &path)
{
    const std::string text = readFileText(path);
    if (!artifactIntact(text, "record", kJobResultSchema))
        throw CorruptArtifactError(
            path, format("result record '%s' failed its schema/CRC32 "
                         "check",
                         path.c_str()));

    JsonValue doc = parseJson(text);
    const std::string w = "job result";
    const JsonValue &r = doc.at("record", w);

    JobRecord rec;
    rec.id = r.at("id", w).asUint(w + ".id");
    rec.status = jobStatusFromName(
        r.at("status", w).asString(w + ".status"), path);
    rec.attempts = static_cast<int>(
        r.at("attempts", w).asInt(w + ".attempts"));
    const JsonValue &err = r.at("error", w);
    if (err.kind != JsonValue::Kind::Null) {
        rec.error.kind = err.at("kind", w).asString(w + ".error.kind");
        rec.error.message =
            err.at("message", w).asString(w + ".error.message");
        rec.error.transient =
            err.at("transient", w).asBool(w + ".error.transient");
    }
    rec.worker = r.at("worker", w).asString(w + ".worker");
    rec.shard =
        static_cast<int>(r.at("shard", w).asInt(w + ".shard"));
    rec.wallSeconds =
        r.at("wall_seconds", w).asDouble(w + ".wall_seconds");
    const JsonValue &mc = r.at("manifest_crc32", w);
    if (mc.kind != JsonValue::Kind::Null)
        rec.manifestCrc = mc.asString(w + ".manifest_crc32");

    if (rec.status == JobStatus::Quarantined &&
        rec.error.kind.empty())
        fatal("'%s': quarantined result carries no error",
              path.c_str());
    if (rec.status != JobStatus::Quarantined &&
        rec.manifestCrc.empty())
        throw CorruptArtifactError(
            path, format("'%s' carries no manifest checksum",
                         path.c_str()));
    return rec;
}

SpoolStatus
scanSpool(const std::string &root)
{
    Spool sp(root);
    SpoolStatus st;
    st.total = spoolNumJobs(sp);

    int maxShard = 0;
    for (const std::string &name : listDir(sp.jobsDir())) {
        SpoolEntry e;
        if (!parseSpoolName(name, e) || !e.worker.empty())
            continue;
        ++st.pending;
        maxShard = std::max(maxShard, e.shard);
    }
    for (const std::string &name : listDir(sp.claimsDir())) {
        SpoolEntry e;
        if (!parseSpoolName(name, e) || e.worker.empty())
            continue;
        maxShard = std::max(maxShard, e.shard);
        // A claim whose result already landed is just an unlink the
        // dead worker never got to — not an in-flight job.
        if (fileExists(sp.resultsDir() + "/" +
                       Spool::resultFileName(e.id)))
            continue;
        ++st.claimed;

        ClaimInfo ci;
        ci.id = e.id;
        ci.shard = e.shard;
        ci.worker = e.worker;
        const std::string claimPath = sp.claimsDir() + "/" + name;
        ci.heartbeatAge = io::vfs().fileAgeSeconds(claimPath);
        readLease(claimPath, ci);
        st.leases.push_back(std::move(ci));
    }
    for (const std::string &name : listDir(sp.resultsDir())) {
        std::uint64_t id;
        if (!parseResultName(name, id))
            continue;
        JobRecord rec;
        try {
            rec = jobRecordFromFile(sp.resultsDir() + "/" + name);
        } catch (const CorruptArtifactError &) {
            ++st.corrupt;
            continue;
        }
        maxShard = std::max(maxShard, rec.shard);
        switch (rec.status) {
          case JobStatus::Ok: ++st.ok; break;
          case JobStatus::Recovered: ++st.recovered; break;
          case JobStatus::Quarantined: ++st.quarantined; break;
        }
    }
    st.shards = maxShard + 1;
    return st;
}

std::size_t
verifySpoolIntegrity(const std::string &root)
{
    Spool sp(root);
    std::size_t quarantined = 0;

    for (const std::string &name : listDir(sp.resultsDir())) {
        std::uint64_t id;
        if (!parseResultName(name, id))
            continue;
        JobRecord rec;
        try {
            rec = jobRecordFromFile(sp.resultsDir() + "/" + name);
        } catch (const CorruptArtifactError &) {
            quarantineArtifact(sp, sp.resultsDir(), name,
                               "result record");
            // The sibling manifest is unprovable without its record.
            const std::string mname = Spool::manifestFileName(id);
            if (fileExists(sp.resultsDir() + "/" + mname))
                quarantineArtifact(sp, sp.resultsDir(), mname,
                                   "unprovable manifest");
            ++quarantined;
            continue;
        }
        if (rec.status == JobStatus::Quarantined)
            continue; // No manifest to check.
        std::string bytes;
        if (!manifestMatchesRecord(sp, rec, bytes)) {
            const std::string mname = Spool::manifestFileName(id);
            if (fileExists(sp.resultsDir() + "/" + mname))
                quarantineArtifact(sp, sp.resultsDir(), mname,
                                   "manifest");
            quarantineArtifact(sp, sp.resultsDir(), name,
                               "record (manifest missing/mismatched)");
            ++quarantined;
        }
    }

    for (const std::string &name : listDir(sp.jobsDir())) {
        SpoolEntry e;
        if (!parseSpoolName(name, e) || !e.worker.empty())
            continue;
        const std::string path = sp.jobsDir() + "/" + name;
        try {
            parseJobSpecText(readFileText(path), path, e.id);
        } catch (const CorruptArtifactError &) {
            quarantineArtifact(sp, sp.jobsDir(), name, "job spec");
            ++quarantined;
        }
    }
    return quarantined;
}

std::size_t
requeueIncomplete(const std::string &root, bool retryQuarantined)
{
    Spool sp(root);
    // First pass: quarantine anything damaged, so the rebuild below
    // sees corrupt results as missing and re-queues those points.
    std::size_t corrupt = verifySpoolIntegrity(root);
    if (corrupt)
        warn("spool '%s': %zu corrupt artifact(s) quarantined; their "
             "points will re-run",
             root.c_str(), corrupt);

    GridSpec grid = GridSpec::fromFile(sp.gridPath());

    std::set<std::uint64_t> pendingIds;
    int maxShard = 0;
    for (const std::string &name : listDir(sp.jobsDir())) {
        SpoolEntry e;
        if (parseSpoolName(name, e) && e.worker.empty()) {
            pendingIds.insert(e.id);
            maxShard = std::max(maxShard, e.shard);
        }
    }
    // id -> stranded claim (name + shard); keep the first if a job
    // somehow accumulated several.
    std::map<std::uint64_t, SpoolEntry> claims;
    std::map<std::uint64_t, std::string> claimNames;
    for (const std::string &name : listDir(sp.claimsDir())) {
        SpoolEntry e;
        if (parseSpoolName(name, e) && !e.worker.empty()) {
            maxShard = std::max(maxShard, e.shard);
            if (claims.emplace(e.id, e).second)
                claimNames.emplace(e.id, name);
        }
    }
    int shards = maxShard + 1;

    std::size_t requeued = 0;
    for (const GridJob &job : grid.jobs) {
        const std::string resultPath =
            sp.resultsDir() + "/" + Spool::resultFileName(job.id);
        if (fileExists(resultPath)) {
            bool retry =
                retryQuarantined &&
                jobRecordFromFile(resultPath).status ==
                    JobStatus::Quarantined;
            if (!retry) {
                // Done. Sweep away anything stale for this id.
                auto it = claimNames.find(job.id);
                if (it != claimNames.end())
                    removeFileIfExists(sp.claimsDir() + "/" +
                                       it->second);
                continue;
            }
            removeFileIfExists(resultPath);
            removeFileIfExists(sp.resultsDir() + "/" +
                               Spool::manifestFileName(job.id));
        }

        if (pendingIds.count(job.id))
            continue; // Already queued; nothing was lost.

        // Stranded claim or no trace at all: either way the spec file
        // is rebuilt from grid.json, the source of truth — a claim
        // holds a lease document, not the spec, so there is nothing
        // to rename back. Keep the claim's shard tag when one exists.
        int shard = static_cast<int>(
            job.id % static_cast<std::uint64_t>(shards));
        auto it = claims.find(job.id);
        if (it != claims.end()) {
            shard = it->second.shard;
            removeFileIfExists(sp.claimsDir() + "/" +
                               claimNames[job.id]);
        }
        writeJobFile(sp, job, shard);
        ++requeued;
    }
    return requeued;
}

namespace {

/** A SimulatedCrash means this process is dead: it must keep
 *  propagating, never become a quarantined record. */
void
rethrowIfCrashed(const std::exception_ptr &failure)
{
    if (!failure)
        return;
    try {
        std::rethrow_exception(failure);
    } catch (const io::SimulatedCrash &) {
        throw;
    } catch (...) {
    }
}

} // namespace

std::size_t
runWorker(const std::string &root, const WorkerOptions &opts)
{
    if (opts.workerId.empty() ||
        opts.workerId.find_first_of("./ ") != std::string::npos)
        raise(ConfigError("worker",
                          format("invalid worker id '%s'",
                                 opts.workerId.c_str())));

    if (opts.gracefulDrain) {
        g_drainRequested = 0;
        installDrainHandler();
    }

    Spool sp(root);
    ProgramCache programs;
    TraceCache traces;
    if (opts.traceCacheBytes)
        traces.setByteBudget(opts.traceCacheBytes);
    std::size_t completed = 0;
    HeartbeatThread heartbeat(opts.leaseSecs);
    bool stallPending = opts.stallAfterFirstClaim;

    // grid.json is only parsed if a claimed spec fails verification —
    // the happy path never touches it.
    std::optional<GridSpec> gridCache;
    auto jobFromGrid = [&](std::uint64_t id) -> const GridJob & {
        if (!gridCache)
            gridCache.emplace(GridSpec::fromFile(sp.gridPath()));
        if (id >= gridCache->jobs.size())
            fatal("spool '%s': job id %llu is outside the grid "
                  "(%zu points)",
                  sp.root.c_str(), static_cast<unsigned long long>(id),
                  gridCache->jobs.size());
        return gridCache->jobs[id];
    };

    /** Claim one pending job file and convert the claim into a lease
     *  document (pid + acquisition time, mtime refreshed by the
     *  heartbeat). The spec text read back from the claim lands in
     *  @p specText. */
    auto acquire = [&](const SpoolEntry &e, const std::string &jobName,
                       std::string &claimPath,
                       std::string &specText) -> bool {
        claimPath = sp.claimsDir() + "/" +
                    Spool::claimFileName(e.id, e.shard, opts.workerId);
        if (!claimFile(sp.jobsDir() + "/" + jobName, claimPath))
            return false; // Another worker won the rename.
        specText = readFileText(claimPath);
        writeFileTextAtomic(
            claimPath,
            renderClaimDoc(e, opts.workerId, embeddedCrc(specText)));
        heartbeat.hold(claimPath);
        if (stallPending) {
            // Simulate a wedged worker: stop (not die) holding the
            // lease. Only SIGKILL from the supervisor ends this.
            stallPending = false;
            warn("worker %s: stalling on job %llu (SIGSTOP self)",
                 opts.workerId.c_str(),
                 static_cast<unsigned long long>(e.id));
            ::kill(::getpid(), SIGSTOP);
        }
        return true;
    };

    /** Run one claimed point and persist it: manifest before result
     *  (a result record's existence implies its manifest is readable,
     *  whatever instant we die at), then drop the claim. */
    auto runOne = [&](const SpoolEntry &e, const std::string &cp,
                      const std::string &specText) {
        auto t0 = std::chrono::steady_clock::now();
        JobRun run;
        try {
            GridJob job;
            try {
                job = parseJobSpecText(specText, cp, e.id);
            } catch (const CorruptArtifactError &err) {
                // The claimed copy is damaged, but grid.json still
                // holds the truth: rebuild and run, don't quarantine
                // a healthy point.
                warn("worker %s: %s; rebuilding job %llu from "
                     "grid.json",
                     opts.workerId.c_str(), err.what(),
                     static_cast<unsigned long long>(e.id));
                job = jobFromGrid(e.id);
            }
            SweepJob sj = gridSweepJob(job, programs, opts.cycleBudget,
                                       opts.wallBudget);
            sj.opts.blackboxPath =
                sp.blackboxDir() + "/" + Spool::blackboxFileName(job.id);
            run = runJob(std::move(sj), traces, opts.retry);
        } catch (...) {
            // The point could not be set up (grid.json unreadable, id
            // out of range, unknown workload, unreadable trace):
            // quarantine it rather than kill the worker.
            run.failure = std::current_exception();
            run.outcome.error = classifyError(run.failure);
            run.outcome.status = JobStatus::Quarantined;
        }
        rethrowIfCrashed(run.failure);

        JobRecord rec;
        rec.id = e.id;
        rec.status = run.outcome.status;
        rec.attempts = run.outcome.attempts;
        rec.error = run.outcome.error;
        rec.worker = opts.workerId;
        rec.shard = e.shard;
        rec.wallSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        const std::string manifestPath =
            sp.resultsDir() + "/" + Spool::manifestFileName(e.id);
        if (rec.status != JobStatus::Quarantined) {
            rec.manifestCrc = crc32Hex(crc32(run.result.manifestJson));
            writeFileTextAtomic(manifestPath, run.result.manifestJson);
        } else {
            removeFileIfExists(manifestPath);
        }
        writeJobRecord(sp, rec);
        heartbeat.release(cp);
        removeFileIfExists(cp);
        ++completed;
    };

    while (true) {
        if (opts.maxJobs && completed >= opts.maxJobs)
            break;
        if (opts.exitIfReparented &&
            getppid() != opts.exitIfReparented)
            break; // Supervisor died; stop claiming new work.
        if (opts.gracefulDrain && g_drainRequested) {
            inform("worker %s: SIGTERM received; drained cleanly "
                   "after %zu job(s)",
                   opts.workerId.c_str(), completed);
            break;
        }

        // Pick a candidate: own shard first, then steal from any.
        std::vector<std::string> names = listDir(sp.jobsDir());
        const std::string *pick = nullptr;
        SpoolEntry picked;
        for (const std::string &name : names) {
            SpoolEntry e;
            if (!parseSpoolName(name, e) || !e.worker.empty())
                continue;
            if (!pick) {
                pick = &name;
                picked = e;
            }
            if (opts.shard >= 0 && e.shard == opts.shard) {
                pick = &name;
                picked = e;
                break;
            }
        }
        if (!pick)
            break; // Spool drained (or everything is claimed).

        std::string claimPath, specText;
        if (!acquire(picked, *pick, claimPath, specText))
            continue; // Lost the race; re-scan.

        runOne(picked, claimPath, specText);
    }
    return completed;
}

void
mergeSpool(const std::string &root, const std::string &mergedPath,
           const std::string &farmManifestPath)
{
    Spool sp(root);
    GridSpec grid = GridSpec::fromFile(sp.gridPath());

    SweepOutcome out;
    std::vector<JobRecord> records;
    out.results.reserve(grid.jobs.size());
    out.jobs.reserve(grid.jobs.size());
    records.reserve(grid.jobs.size());

    std::size_t missing = 0;
    std::size_t corrupt = 0;
    auto quarantineResult = [&](std::uint64_t id, const char *what) {
        const std::string rname = Spool::resultFileName(id);
        const std::string mname = Spool::manifestFileName(id);
        if (fileExists(sp.resultsDir() + "/" + rname))
            quarantineArtifact(sp, sp.resultsDir(), rname, what);
        if (fileExists(sp.resultsDir() + "/" + mname))
            quarantineArtifact(sp, sp.resultsDir(), mname, what);
        ++corrupt;
    };

    for (const GridJob &job : grid.jobs) {
        const std::string resultPath =
            sp.resultsDir() + "/" + Spool::resultFileName(job.id);
        if (!fileExists(resultPath)) {
            ++missing;
            continue;
        }
        JobRecord rec;
        try {
            rec = jobRecordFromFile(resultPath);
        } catch (const CorruptArtifactError &) {
            quarantineResult(job.id, "result record");
            continue;
        }
        if (rec.id != job.id)
            fatal("'%s' holds id %llu", resultPath.c_str(),
                  static_cast<unsigned long long>(rec.id));

        SimResult r;
        if (rec.status != JobStatus::Quarantined) {
            // The raw bytes the worker captured — never re-parsed,
            // never re-serialized, so the merged document is
            // byte-identical to an in-process sweep's by
            // construction. CRC-verified first: damaged bytes are
            // quarantined, never spliced.
            if (!manifestMatchesRecord(sp, rec, r.manifestJson)) {
                quarantineResult(job.id, "manifest");
                continue;
            }
        }
        out.add({rec.status, rec.attempts, rec.error}, std::move(r));
        records.push_back(std::move(rec));
    }
    if (corrupt)
        raise(CorruptArtifactError(
            root,
            format("merge of '%s' found %zu corrupt artifact(s); "
                   "they were moved to corrupt/ — resume the spool "
                   "to re-run those points",
                   root.c_str(), corrupt)));
    if (missing)
        fatal("spool '%s' is incomplete: %zu of %zu points have no "
              "result (resume it first)",
              root.c_str(), missing, grid.jobs.size());

    writeSweepManifestFile(grid.title, out, mergedPath);

    if (farmManifestPath.empty())
        return;

    // The provenance document: who ran what, where. Deliberately a
    // separate schema — shard and worker assignment are nondeterminism
    // the merged sweep manifest must not see.
    int maxShard = 0;
    std::set<std::string> workers;
    for (const JobRecord &rec : records) {
        maxShard = std::max(maxShard, rec.shard);
        workers.insert(rec.worker);
    }

    AtomicFile file(farmManifestPath);
    {
        JsonWriter w(file.stream());
        w.beginObject();
        w.field("schema", kFarmManifestSchema);
        w.field("title", grid.title);
        w.key("generator");
        w.beginObject();
        w.field("name", obs::simulatorName());
        w.field("version", obs::simulatorVersion());
        w.field("git", obs::gitDescribe());
        w.endObject();
        w.field("num_jobs",
                static_cast<std::uint64_t>(records.size()));
        w.key("workers");
        w.beginArray();
        for (const std::string &worker : workers)
            w.value(worker);
        w.endArray();
        w.key("shards");
        w.beginArray();
        for (int s = 0; s <= maxShard; ++s) {
            w.beginObject();
            w.field("shard", s);
            std::size_t count = 0;
            for (const JobRecord &rec : records)
                if (rec.shard == s)
                    ++count;
            w.field("num_jobs", static_cast<std::uint64_t>(count));
            w.key("jobs");
            w.beginArray();
            for (const JobRecord &rec : records) {
                if (rec.shard != s)
                    continue;
                w.beginObject();
                w.field("id", rec.id);
                w.field("worker", rec.worker);
                w.field("status", jobStatusName(rec.status));
                w.field("attempts",
                        static_cast<std::uint64_t>(rec.attempts));
                w.field("wall_seconds", rec.wallSeconds);
                if (!rec.error.kind.empty())
                    writeErrorField(w, rec.error);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    file.stream() << '\n';
    file.commit();
}

SpoolStatus
superviseFarm(const std::string &root, const SupervisorOptions &opts)
{
    if (opts.exePath.empty())
        raise(ConfigError("farm", "supervisor has no worker binary"));

    Spool sp(root);
    GridSpec grid = GridSpec::fromFile(sp.gridPath());
    // Claims can only belong to dead workers at this point — we have
    // not spawned any yet. Verify artifacts and fold claims back in.
    requeueIncomplete(root, false);
    SpoolStatus st = scanSpool(root);
    if (st.complete())
        return st;

    struct Live
    {
        pid_t pid;
        std::string worker;
        int shard;
    };
    std::vector<Live> alive;
    int spawned = 0;
    int respawns = 0;
    std::map<std::uint64_t, int> crashCounts;

    auto spawnOne = [&](int shard) {
        std::string worker = format("w%d", spawned);
        std::vector<std::string> argv = {
            opts.exePath,
            "worker",
            "--spool=" + root,
            "--worker=" + worker,
            format("--shard=%d", shard),
            format("--parent=%d", static_cast<int>(getpid())),
        };
        if (opts.leaseSecs > 0)
            argv.push_back(
                format("--lease-secs=%g", opts.leaseSecs));
        argv.insert(argv.end(), opts.workerArgs.begin(),
                    opts.workerArgs.end());
        alive.push_back({spawnProcess(argv), worker, shard});
        ++spawned;
    };

    auto rebuildJobFile = [&](std::uint64_t id, int shard) {
        if (id >= grid.jobs.size()) {
            warn("farm: stray claim names job %llu, outside the grid "
                 "(%zu points); dropping it",
                 static_cast<unsigned long long>(id),
                 grid.jobs.size());
            return;
        }
        writeJobFile(sp, grid.jobs[id], shard);
    };

    /** SIGKILL one of our own workers by name; never signals a pid we
     *  did not spawn. The poll loop reaps the corpse. */
    auto killWorker = [&](const std::string &worker) {
        for (const Live &l : alive)
            if (l.worker == worker) {
                killProcess(l.pid, SIGKILL);
                return true;
            }
        return false;
    };

    /** Quarantine a point the supervisor gave up on: a placeholder
     *  record carrying a non-transient @p kind error, then drop the
     *  claim. */
    auto quarantineClaim = [&](const SpoolEntry &e,
                               const std::string &claimPath,
                               int attempts, const char *kind,
                               std::string message) {
        JobRecord rec;
        rec.id = e.id;
        rec.status = JobStatus::Quarantined;
        rec.attempts = std::max(attempts, 1);
        rec.error = {kind, std::move(message), false};
        rec.worker = e.worker;
        rec.shard = e.shard;
        removeFileIfExists(sp.resultsDir() + "/" +
                           Spool::manifestFileName(e.id));
        writeJobRecord(sp, rec);
        removeFileIfExists(claimPath);
    };

    /** A claim was lost: its worker died, or its lease went stale.
     *  Count the loss, then requeue the point — or, once it has cost
     *  crashQuarantineAfter claims, quarantine it with @p kind and
     *  the message @p describe(losses) words. */
    auto loseClaim = [&](const SpoolEntry &e,
                         const std::string &claimPath, const char *kind,
                         auto describe) {
        int losses = ++crashCounts[e.id];
        if (losses < opts.crashQuarantineAfter) {
            removeFileIfExists(claimPath);
            rebuildJobFile(e.id, e.shard);
            return;
        }
        std::string message = describe(losses);
        warn("farm: quarantining job %llu: %s",
             static_cast<unsigned long long>(e.id), message.c_str());
        quarantineClaim(e, claimPath, losses, kind, std::move(message));
    };

    // Requeue what a dead worker left in claims/; a point that keeps
    // killing workers gets crash-quarantined instead of another turn.
    // Empty @p worker matches every claim (post-mortem sweep).
    auto reapClaims = [&](const std::string &worker,
                          const std::string &why) {
        for (const std::string &name : listDir(sp.claimsDir())) {
            SpoolEntry e;
            if (!parseSpoolName(name, e) || e.worker.empty())
                continue;
            if (!worker.empty() && e.worker != worker)
                continue;
            const std::string claimPath =
                sp.claimsDir() + "/" + name;
            if (fileExists(sp.resultsDir() + "/" +
                           Spool::resultFileName(e.id))) {
                removeFileIfExists(claimPath);
                continue;
            }
            loseClaim(e, claimPath, "crash", [&](int crashes) {
                return format("job took its worker process down %d "
                              "time(s); last: %s",
                              crashes, why.c_str());
            });
        }
    };

    /** Lease expiry + per-job wall-clock watchdog: a claim whose
     *  heartbeat went stale marks a wedged worker (kill + reclaim,
     *  quarantine after repeated losses); a claim older than the job
     *  wall budget marks a hung job (kill + quarantine now). */
    auto superviseLeases = [&] {
        if (opts.leaseSecs <= 0 && opts.jobWallSecs <= 0)
            return;
        for (const std::string &name : listDir(sp.claimsDir())) {
            SpoolEntry e;
            if (!parseSpoolName(name, e) || e.worker.empty())
                continue;
            const std::string claimPath =
                sp.claimsDir() + "/" + name;
            if (fileExists(sp.resultsDir() + "/" +
                           Spool::resultFileName(e.id)))
                continue; // Persisted; the unlink is imminent.
            double heartbeatAge =
                io::vfs().fileAgeSeconds(claimPath);
            if (heartbeatAge < 0)
                continue; // Claim vanished mid-scan.
            ClaimInfo lease;
            readLease(claimPath, lease);

            if (opts.jobWallSecs > 0 && lease.jobAge > opts.jobWallSecs) {
                warn("farm: job %llu has held its claim %.1fs "
                     "(> --job-wall-secs=%.1f); quarantining it and "
                     "killing worker %s",
                     static_cast<unsigned long long>(e.id),
                     lease.jobAge, opts.jobWallSecs, e.worker.c_str());
                killWorker(e.worker);
                quarantineClaim(
                    e, claimPath, crashCounts[e.id] + 1, "hung",
                    format("job exceeded the per-job wall clock "
                           "(ran %.1fs, budget %.1fs); worker %s was "
                           "SIGKILLed",
                           lease.jobAge, opts.jobWallSecs,
                           e.worker.c_str()));
                continue;
            }

            if (opts.leaseSecs > 0 && heartbeatAge > opts.leaseSecs) {
                warn("farm: lease on job %llu went stale (heartbeat "
                     "%.1fs old > --lease-secs=%.1f); killing worker "
                     "%s",
                     static_cast<unsigned long long>(e.id),
                     heartbeatAge, opts.leaseSecs, e.worker.c_str());
                killWorker(e.worker);
                loseClaim(e, claimPath, "hung", [](int losses) {
                    return format("lease went stale %d time(s); the "
                                  "point hangs its workers",
                                  losses);
                });
            }
        }
    };

    while (true) {
        std::size_t todo = st.total - st.done();
        int batch = std::max(
            1, std::min(opts.workers,
                        static_cast<int>(std::min<std::size_t>(
                            todo, 1000000))));
        for (int i = 0; i < batch; ++i)
            spawnOne(i % st.shards);

        int idleTicks = 0;
        while (!alive.empty()) {
            bool reaped = false;
            for (std::size_t i = 0; i < alive.size();) {
                ProcessExit ex;
                if (!tryWaitProcess(alive[i].pid, ex)) {
                    ++i;
                    continue;
                }
                Live dead = alive[i];
                alive.erase(alive.begin() +
                            static_cast<std::ptrdiff_t>(i));
                reaped = true;
                if (ex.ok())
                    continue; // Drained its share and left.

                warn("farm worker %s died (%s)", dead.worker.c_str(),
                     ex.describe().c_str());
                reapClaims(dead.worker, ex.describe());
                st = scanSpool(root);
                if (st.complete())
                    continue;
                if (respawns < opts.respawnLimit) {
                    ++respawns;
                    spawnOne(dead.shard);
                } else {
                    warn("farm: respawn budget (%d) exhausted",
                         opts.respawnLimit);
                }
            }
            if (!reaped) {
                // Sweep leases at ~5 Hz, not every 10 ms tick: stat +
                // read per claim is cheap but not free.
                if (++idleTicks >= 20) {
                    idleTicks = 0;
                    superviseLeases();
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
        }

        // Post-mortem: no worker is alive, so every remaining claim
        // is stranded.
        reapClaims("", "worker exited without finishing its claim");
        st = scanSpool(root);
        if (st.complete())
            return st;
        if (st.pending == 0 || respawns >= opts.respawnLimit)
            fatal("farm on '%s' did not complete: %zu of %zu points "
                  "done, %zu pending, %d respawns used",
                  root.c_str(), st.done(), st.total, st.pending,
                  respawns);
        ++respawns;
    }
}

SweepOutcome
runSerial(const GridSpec &spec, unsigned workers,
          const RetryPolicy &retry, std::uint64_t cycleBudget,
          double wallBudget, const std::string &mergedPath,
          std::size_t traceCacheBytes)
{
    spec.validate();
    SweepRunner runner(workers);
    runner.setRetryPolicy(retry);
    if (traceCacheBytes)
        runner.setTraceCacheBudget(traceCacheBytes);
    ProgramCache programs;
    for (const GridJob &job : spec.jobs)
        runner.submit(
            gridSweepJob(job, programs, cycleBudget, wallBudget));
    SweepOutcome out = runner.collectOutcome();
    if (!mergedPath.empty())
        writeSweepManifestFile(spec.title, out, mergedPath);
    return out;
}

} // namespace ddsim::sim::farm
