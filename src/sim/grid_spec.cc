#include "sim/grid_spec.hh"

#include <ostream>
#include <sstream>

#include "analysis/annotate.hh"
#include "obs/manifest.hh"
#include "util/atomic_file.hh"
#include "util/json.hh"
#include "util/json_parse.hh"
#include "util/log.hh"
#include "workloads/common.hh"

namespace ddsim::sim {

namespace {

config::CacheParams
cacheParamsFromJson(const JsonValue &v, const std::string &what)
{
    config::CacheParams c;
    c.sizeBytes = static_cast<std::uint32_t>(
        v.at("size_bytes", what).asUint(what + ".size_bytes"));
    c.assoc = static_cast<std::uint32_t>(
        v.at("assoc", what).asUint(what + ".assoc"));
    c.lineBytes = static_cast<std::uint32_t>(
        v.at("line_bytes", what).asUint(what + ".line_bytes"));
    c.hitLatency = v.at("hit_latency", what)
                       .asUint(what + ".hit_latency");
    c.ports = static_cast<int>(
        v.at("ports", what).asInt(what + ".ports"));
    c.banks = static_cast<int>(
        v.at("banks", what).asInt(what + ".banks"));
    c.mshrs = static_cast<int>(
        v.at("mshrs", what).asInt(what + ".mshrs"));
    return c;
}

} // namespace

config::MachineConfig
machineConfigFromJson(const JsonValue &v)
{
    const std::string w = "config";
    config::MachineConfig cfg;
    cfg.fetchWidth = static_cast<int>(
        v.at("fetch_width", w).asInt(w + ".fetch_width"));
    cfg.issueWidth = static_cast<int>(
        v.at("issue_width", w).asInt(w + ".issue_width"));
    cfg.commitWidth = static_cast<int>(
        v.at("commit_width", w).asInt(w + ".commit_width"));
    cfg.robSize = static_cast<int>(
        v.at("rob_size", w).asInt(w + ".rob_size"));
    cfg.lsqSize = static_cast<int>(
        v.at("lsq_size", w).asInt(w + ".lsq_size"));
    cfg.lvaqSize = static_cast<int>(
        v.at("lvaq_size", w).asInt(w + ".lvaq_size"));
    cfg.numIntAlu = static_cast<int>(
        v.at("num_int_alu", w).asInt(w + ".num_int_alu"));
    cfg.numFpAlu = static_cast<int>(
        v.at("num_fp_alu", w).asInt(w + ".num_fp_alu"));
    cfg.numIntMultDiv = static_cast<int>(
        v.at("num_int_mult_div", w).asInt(w + ".num_int_mult_div"));
    cfg.numFpMultDiv = static_cast<int>(
        v.at("num_fp_mult_div", w).asInt(w + ".num_fp_mult_div"));
    cfg.l1 = cacheParamsFromJson(v.at("l1", w), w + ".l1");
    cfg.lvcEnabled = v.at("lvc_enabled", w).asBool(w + ".lvc_enabled");
    cfg.lvc = cacheParamsFromJson(v.at("lvc", w), w + ".lvc");
    cfg.l2 = cacheParamsFromJson(v.at("l2", w), w + ".l2");
    cfg.memLatency = v.at("mem_latency", w).asUint(w + ".mem_latency");
    cfg.classifier = config::classifierFromName(
        v.at("classifier", w).asString(w + ".classifier"));
    cfg.fastForward =
        v.at("fast_forward", w).asBool(w + ".fast_forward");
    cfg.combining = static_cast<int>(
        v.at("combining", w).asInt(w + ".combining"));
    cfg.forwardLatency =
        v.at("forward_latency", w).asUint(w + ".forward_latency");
    cfg.mispredictPenalty = v.at("mispredict_penalty", w)
                                .asUint(w + ".mispredict_penalty");

    // The notation in the document is redundant with the fields above;
    // a mismatch means someone edited one without the other.
    const std::string &notation =
        v.at("notation", w).asString(w + ".notation");
    if (notation != cfg.notation())
        raise(ConfigError(
            "notation",
            format("grid spec notation '%s' disagrees with its config "
                   "fields ('%s')",
                   notation.c_str(), cfg.notation().c_str())));
    return cfg;
}

void
writeGridJobJson(JsonWriter &w, const GridJob &job)
{
    w.beginObject();
    w.field("id", job.id);
    w.field("workload", job.workload);
    w.field("scale", job.scale);
    w.field("seed", job.seed);
    w.field("max_insts", job.maxInsts);
    w.field("warmup_insts", job.warmupInsts);
    // Only annotated points carry the field, so specs written before
    // the static-partitioning pass existed stay byte-identical.
    if (!job.annotate.empty())
        w.field("annotate", job.annotate);
    // Same rule for external-trace points.
    if (!job.tracePath.empty())
        w.field("trace_path", job.tracePath);
    // Same byte-compat rule for the engine selector and sampling
    // plan: Auto-engine points (all pre-engine specs) write neither.
    if (job.engine != Engine::Auto) {
        w.field("engine", engineName(job.engine));
        if (job.engine == Engine::Sampled) {
            w.key("sampling");
            w.beginObject();
            w.field("period", job.sampling.period);
            w.field("detail", job.sampling.detail);
            w.field("warmup", job.sampling.warmup);
            w.endObject();
        }
    }
    w.key("config");
    obs::writeMachineConfigJson(w, job.cfg);
    w.endObject();
}

GridJob
gridJobFromJson(const JsonValue &v)
{
    const std::string w = "job";
    GridJob job;
    job.id = v.at("id", w).asUint(w + ".id");
    job.workload = v.at("workload", w).asString(w + ".workload");
    job.scale = v.at("scale", w).asUint(w + ".scale");
    job.seed = v.at("seed", w).asUint(w + ".seed");
    job.maxInsts = v.at("max_insts", w).asUint(w + ".max_insts");
    job.warmupInsts =
        v.at("warmup_insts", w).asUint(w + ".warmup_insts");
    if (const JsonValue *a = v.get("annotate"))
        job.annotate = a->asString(w + ".annotate");
    if (const JsonValue *t = v.get("trace_path"))
        job.tracePath = t->asString(w + ".trace_path");
    if (const JsonValue *e = v.get("engine"))
        job.engine = engineFromName(e->asString(w + ".engine"));
    if (const JsonValue *s = v.get("sampling")) {
        const std::string sw = w + ".sampling";
        job.sampling.period =
            s->at("period", sw).asUint(sw + ".period");
        job.sampling.detail =
            s->at("detail", sw).asUint(sw + ".detail");
        job.sampling.warmup =
            s->at("warmup", sw).asUint(sw + ".warmup");
    }
    job.cfg = machineConfigFromJson(v.at("config", w));
    return job;
}

void
GridSpec::validate() const
{
    if (jobs.empty())
        fatal("grid spec '%s' has no jobs", title.c_str());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const GridJob &job = jobs[i];
        if (job.id != i)
            fatal("grid spec '%s': job %zu has id %llu (ids must be "
                  "dense and in order)",
                  title.c_str(), i,
                  static_cast<unsigned long long>(job.id));
        if (job.tracePath.empty()) {
            if (!workloads::find(job.workload))
                fatal("grid spec '%s': job %zu names unknown workload "
                      "'%s'",
                      title.c_str(), i, job.workload.c_str());
            if (job.scale == 0)
                fatal("grid spec '%s': job %zu has scale 0",
                      title.c_str(), i);
        } else {
            // External-trace point: the program comes from the file,
            // so the workload name is display-only; hint rewriting
            // happened at conversion time and cannot be re-run here,
            // and the live engine has nothing to execute.
            if (!job.annotate.empty())
                fatal("grid spec '%s': job %zu combines trace_path "
                      "with an annotate policy (hints are burned by "
                      "the converter, not at rebuild time)",
                      title.c_str(), i);
            if (job.engine == Engine::Live)
                fatal("grid spec '%s': job %zu demands the live "
                      "engine for an external trace, which has no "
                      "functional semantics to execute",
                      title.c_str(), i);
        }
        if (!job.annotate.empty() &&
            !analysis::hintPolicyFromName(job.annotate))
            fatal("grid spec '%s': job %zu names unknown annotate "
                  "policy '%s'",
                  title.c_str(), i, job.annotate.c_str());
        if (job.engine == Engine::Sampled) {
            if (!job.sampling.valid())
                fatal("grid spec '%s': job %zu has an invalid "
                      "sampling plan (period %llu, detail %llu, "
                      "warmup %llu)",
                      title.c_str(), i,
                      static_cast<unsigned long long>(
                          job.sampling.period),
                      static_cast<unsigned long long>(
                          job.sampling.detail),
                      static_cast<unsigned long long>(
                          job.sampling.warmup));
            if (job.warmupInsts != 0)
                fatal("grid spec '%s': job %zu combines a whole-run "
                      "warmup with the sampled engine",
                      title.c_str(), i);
        }
        job.cfg.validate();
    }
}

void
GridSpec::writeTo(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", kGridSchema);
    w.field("title", title);
    w.field("num_jobs", static_cast<std::uint64_t>(jobs.size()));
    w.key("jobs");
    w.beginArray();
    for (const GridJob &job : jobs)
        writeGridJobJson(w, job);
    w.endArray();
    w.endObject();
    os << '\n';
}

void
GridSpec::writeFile(const std::string &path) const
{
    AtomicFile file(path);
    writeTo(file.stream());
    file.commit();
}

GridSpec
GridSpec::fromJson(const JsonValue &doc)
{
    const std::string w = "grid";
    const std::string &schema =
        doc.at("schema", w).asString(w + ".schema");
    if (schema != kGridSchema)
        fatal("grid spec schema is '%s', expected '%s'",
              schema.c_str(), kGridSchema);
    GridSpec spec;
    spec.title = doc.at("title", w).asString(w + ".title");
    const auto &arr = doc.at("jobs", w).asArray(w + ".jobs");
    spec.jobs.reserve(arr.size());
    for (const JsonValue &jv : arr)
        spec.jobs.push_back(gridJobFromJson(jv));
    if (doc.at("num_jobs", w).asUint(w + ".num_jobs") !=
        spec.jobs.size())
        fatal("grid spec '%s': num_jobs disagrees with the jobs array",
              spec.title.c_str());
    spec.validate();
    return spec;
}

GridSpec
GridSpec::fromFile(const std::string &path)
{
    return fromJson(parseJsonFile(path));
}

prog::Program
buildGridProgram(const GridJob &job)
{
    if (!job.tracePath.empty())
        fatal("grid job %llu: an external-trace point has no program "
              "to build (load its trace_path instead)",
              static_cast<unsigned long long>(job.id));
    workloads::WorkloadParams p;
    p.scale = job.scale;
    p.seed = job.seed;
    prog::Program program = workloads::build(job.workload, p);
    if (job.annotate.empty())
        return program;
    auto policy = analysis::hintPolicyFromName(job.annotate);
    if (!policy)
        fatal("grid job %llu: unknown annotate policy '%s'",
              static_cast<unsigned long long>(job.id),
              job.annotate.c_str());
    return analysis::annotateProgram(program, *policy);
}

} // namespace ddsim::sim
