#include "bench_common.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "sim/grid_spec.hh"
#include "util/log.hh"
#include "util/str.hh"

namespace ddsim::bench {

Options::Options(int argc, const char *const *argv)
    : args(argc, argv)
{
    // The --programs branch below skips the --int/--fp queries, but
    // they are still valid harness flags; register them regardless.
    args.markKnown("int");
    args.markKnown("fp");

    manifestPath = args.get("manifest");
    emitGridPath = args.get("emit-grid");
    scaleFactor = args.getDouble("scale", 1.0);
    if (scaleFactor <= 0)
        fatal("--scale must be positive");

    std::int64_t cb = args.getInt("cycle-budget", 0);
    if (cb < 0)
        fatal("--cycle-budget must be >= 0 (0 = unlimited)");
    cycleBudget = static_cast<std::uint64_t>(cb);
    wallBudget = args.getDouble("wall-budget", 0.0);
    if (wallBudget < 0)
        fatal("--wall-budget must be >= 0 (0 = unlimited)");
    failFast = args.getBool("fail-fast");

    if (args.has("engine"))
        engine = sim::engineFromName(args.get("engine"));
    std::int64_t sp = args.getInt("sample-period",
                                  static_cast<std::int64_t>(
                                      sampling.period));
    std::int64_t sd = args.getInt("sample-detail",
                                  static_cast<std::int64_t>(
                                      sampling.detail));
    std::int64_t swu = args.getInt("sample-warmup",
                                   static_cast<std::int64_t>(
                                       sampling.warmup));
    if (sp <= 0 || sd <= 0 || swu < 0)
        fatal("--sample-period/--sample-detail must be > 0 and "
              "--sample-warmup >= 0");
    sampling.period = static_cast<std::uint64_t>(sp);
    sampling.detail = static_cast<std::uint64_t>(sd);
    sampling.warmup = static_cast<std::uint64_t>(swu);
    if (!sampling.valid())
        fatal("--sample-warmup + --sample-detail must not exceed "
              "--sample-period");

    std::int64_t j = args.getInt("jobs", 0); // 0 = auto
    if (j < 0)
        fatal("--jobs must be >= 0 (0 = one per hardware thread)");
    jobs = static_cast<unsigned>(j);

    std::vector<std::string> names;
    bool explicitSelection =
        args.has("programs") || args.has("trace-in");
    if (args.has("programs")) {
        for (auto &n : split(args.get("programs"), ','))
            names.emplace_back(trim(n));
    } else if (args.getBool("int")) {
        names = workloads::integerNames();
    } else if (args.getBool("fp")) {
        names = workloads::fpNames();
    } else if (!explicitSelection) {
        for (const auto &w : workloads::all())
            names.push_back(w.name);
    }
    for (const auto &n : names) {
        const workloads::WorkloadInfo *info = workloads::find(n);
        if (!info)
            fatal("unknown workload '%s'", n.c_str());
        programs.push_back(info);
    }

    // External traces join the program list as pseudo-workloads. The
    // vector is reserved exactly once so the WorkloadInfo objects
    // (and the strings their name fields point into) never move.
    if (args.has("trace-in")) {
        if (engine == sim::Engine::Live)
            fatal("--engine=live cannot run --trace-in inputs: an "
                  "external trace has no functional semantics to "
                  "execute");
        std::vector<std::string> paths;
        for (auto &p : split(args.get("trace-in"), ','))
            paths.emplace_back(trim(p));
        traceInputs.reserve(paths.size());
        for (const std::string &path : paths) {
            if (path.empty())
                fatal("--trace-in: empty path in list");
            TraceInput ti;
            ti.path = path;
            ti.trace = vm::ExternalTrace::loadCached(path);
            ti.name = ti.trace->program().name();
            ti.paper = "xtrace:" + ti.name;
            traceInputs.push_back(std::move(ti));
            // Fill info only once the strings have their final
            // address (short strings move their SSO buffer with the
            // object, which would dangle the c_str pointers).
            TraceInput &t = traceInputs.back();
            t.info = {t.name.c_str(), t.paper.c_str(),
                      "external trace input", false, nullptr, 1};
            programs.push_back(&t.info);
        }
    }
}

const TraceInput *
Options::traceFor(const workloads::WorkloadInfo &info) const
{
    for (const TraceInput &ti : traceInputs)
        if (&ti.info == &info)
            return &ti;
    return nullptr;
}

prog::Program
buildProgram(const workloads::WorkloadInfo &info, const Options &opts)
{
    if (!info.factory)
        fatal("program '%s' is an external trace input; its program "
              "is embedded in the trace, not built from a factory",
              info.name);
    workloads::WorkloadParams p;
    double scaled =
        static_cast<double>(info.defaultScale) * opts.scaleFactor;
    p.scale = scaled < 1.0 ? 1 : static_cast<std::uint64_t>(scaled);
    return info.factory(p);
}

std::shared_ptr<const prog::Program>
buildProgramShared(const workloads::WorkloadInfo &info,
                   const Options &opts)
{
    // Trace inputs carry their own reconstructed program; handing it
    // out here lets every bench treat them like registry workloads.
    if (!info.factory) {
        const TraceInput *ti = opts.traceFor(info);
        if (!ti)
            fatal("program '%s' has no factory and no backing trace",
                  info.name);
        return ti->trace->sharedProgram();
    }
    static sim::ProgramCache cache;
    std::string key = std::string(info.name) + "@" +
                      std::to_string(opts.scaleFactor);
    return cache.get(key,
                     [&info, &opts] { return buildProgram(info, opts); });
}

std::vector<sim::SimResult>
runGrid(const Options &opts, std::vector<sim::SweepJob> jobs,
        const std::string &title)
{
    // Every bench has queried its flags by the time it has a grid to
    // run, so this is the natural choke point for typo rejection.
    opts.args.rejectUnknown();

    if (!opts.emitGridPath.empty()) {
        // Export instead of run: the same grid, as a portable spec the
        // sweep farm executes with bit-identical results. Jobs built
        // by buildProgramShared resolve to (registry name, harness
        // scale, default seed); anything else cannot be spooled.
        sim::GridSpec spec;
        spec.title = title;
        spec.jobs.reserve(jobs.size());
        // Trace-backed jobs spool as trace_path points; map them by
        // program identity (each ExternalTrace owns its program).
        std::map<const prog::Program *, const TraceInput *> byProgram;
        for (const TraceInput &ti : opts.traceInputs)
            byProgram.emplace(&ti.trace->program(), &ti);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const sim::SweepJob &job = jobs[i];
            sim::GridJob g;
            g.id = i;
            auto it = byProgram.find(job.program.get());
            if (it != byProgram.end()) {
                if (!job.annotate.empty())
                    fatal("--emit-grid: job %zu annotates an external "
                          "trace (hints are burned by the converter)",
                          i);
                g.workload = job.program->name();
                g.scale = 1;
                g.seed = 0;
                g.tracePath = it->second->path;
            } else {
                const workloads::WorkloadInfo *info =
                    workloads::find(job.program->name());
                if (!info)
                    fatal("--emit-grid: job %zu runs program '%s', "
                          "which is not a registry workload",
                          i, job.program->name().c_str());
                g.workload = info->name;
                double scaled =
                    static_cast<double>(info->defaultScale) *
                    opts.scaleFactor;
                g.scale = scaled < 1.0
                              ? 1
                              : static_cast<std::uint64_t>(scaled);
                g.seed = workloads::WorkloadParams{}.seed;
            }
            g.maxInsts = job.opts.maxInsts;
            g.warmupInsts = job.opts.warmupInsts;
            g.annotate = job.annotate;
            g.engine = opts.engine;
            if (opts.engine == sim::Engine::Sampled)
                g.sampling = opts.sampling;
            g.cfg = job.cfg;
            spec.jobs.push_back(std::move(g));
        }
        spec.validate();
        spec.writeFile(opts.emitGridPath);
        std::printf("Grid spec (%zu jobs) written to %s\n",
                    spec.jobs.size(), opts.emitGridPath.c_str());
        std::exit(0);
    }

    // Jobs whose program came from a --trace-in input carry the
    // decoded trace so the runner replays the recorded stream instead
    // of tracing the reconstructed program.
    std::map<const prog::Program *,
             std::shared_ptr<const vm::ExternalTrace>>
        traceByProgram;
    for (const TraceInput &ti : opts.traceInputs)
        traceByProgram.emplace(&ti.trace->program(), ti.trace);

    for (sim::SweepJob &job : jobs) {
        auto it = traceByProgram.find(job.program.get());
        if (it != traceByProgram.end())
            job.opts.externalTrace = it->second;
        if (!opts.manifestPath.empty())
            job.opts.captureManifest = true;
        if (opts.cycleBudget != 0)
            job.opts.maxCycles = opts.cycleBudget;
        if (opts.wallBudget > 0)
            job.opts.maxWallSeconds = opts.wallBudget;
        if (opts.engine != sim::Engine::Auto) {
            job.opts.engine = opts.engine;
            if (opts.engine == sim::Engine::Sampled)
                job.opts.sampling = opts.sampling;
        }
    }

    if (opts.failFast) {
        std::vector<sim::SimResult> results =
            sim::SweepRunner::runAll(std::move(jobs), opts.jobs);
        if (!opts.manifestPath.empty()) {
            sim::writeSweepManifestFile(title, results,
                                        opts.manifestPath);
            std::printf("Sweep manifest written to %s\n",
                        opts.manifestPath.c_str());
        }
        return results;
    }

    // Default: fault-isolating sweep. A failed point is quarantined
    // and reported; the rest of the figure still comes out, and the
    // manifest says exactly what is missing.
    sim::SweepRunner runner(opts.jobs);
    std::vector<std::pair<std::string, std::string>> points;
    points.reserve(jobs.size());
    for (sim::SweepJob &job : jobs) {
        points.emplace_back(job.program->name(), job.cfg.notation());
        runner.submit(std::move(job));
    }
    sim::SweepOutcome outcome = runner.collectOutcome();
    for (std::size_t i = 0; i < outcome.jobs.size(); ++i) {
        const sim::JobOutcome &jo = outcome.jobs[i];
        if (jo.status == sim::JobStatus::Quarantined)
            warn("quarantined job %zu (%s %s) after %d attempt(s): "
                 "[%s] %s",
                 i, points[i].first.c_str(), points[i].second.c_str(),
                 jo.attempts, jo.error.kind.c_str(),
                 jo.error.message.c_str());
        else if (jo.status == sim::JobStatus::Recovered)
            warn("job %zu (%s %s) recovered on attempt %d from: [%s]",
                 i, points[i].first.c_str(), points[i].second.c_str(),
                 jo.attempts, jo.error.kind.c_str());
    }
    if (outcome.degraded)
        warn("sweep degraded: %zu of %zu jobs quarantined",
             outcome.numQuarantined, outcome.jobs.size());
    if (!opts.manifestPath.empty()) {
        sim::writeSweepManifestFile(title, outcome, opts.manifestPath);
        std::printf("Sweep manifest written to %s%s\n",
                    opts.manifestPath.c_str(),
                    outcome.degraded ? " (degraded)" : "");
    }
    return std::move(outcome.results);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

void
banner(const std::string &title, const std::string &paperShape)
{
    std::printf("\n=== %s ===\n", title.c_str());
    if (!paperShape.empty())
        std::printf("Paper shape: %s\n", paperShape.c_str());
}

} // namespace ddsim::bench
