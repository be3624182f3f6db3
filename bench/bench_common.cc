#include "bench_common.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/farm.hh"
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

sim::GridJob
Options::job(const workloads::WorkloadInfo &info,
             const config::MachineConfig &cfg) const
{
    sim::GridJob g;
    g.workload = info.name;
    if (const TraceInput *ti = traceFor(info)) {
        g.tracePath = ti->path;
    } else {
        double scaled =
            static_cast<double>(info.defaultScale) * scaleFactor;
        g.scale = scaled < 1.0 ? 1 : static_cast<std::uint64_t>(scaled);
        g.seed = workloads::WorkloadParams{}.seed;
    }
    g.engine = engine;
    if (engine == sim::Engine::Sampled)
        g.sampling = sampling;
    g.cfg = cfg;
    return g;
}

std::shared_ptr<const prog::Program>
buildProgramShared(const workloads::WorkloadInfo &info,
                   const Options &opts)
{
    if (const TraceInput *ti = opts.traceFor(info))
        return ti->trace->sharedProgram();
    return std::make_shared<const prog::Program>(
        sim::buildGridProgram(opts.job(info, {})));
}

std::vector<sim::SimResult>
runGrid(const Options &opts, std::vector<sim::GridJob> jobs,
        const std::string &title)
{
    // Every bench has queried its flags by the time it has a grid to
    // run, so this is the natural choke point for typo rejection.
    opts.args.rejectUnknown();

    sim::GridSpec spec{title, std::move(jobs)};
    for (std::size_t i = 0; i < spec.jobs.size(); ++i)
        spec.jobs[i].id = i;
    spec.validate();

    if (!opts.emitGridPath.empty()) {
        // Export instead of run: the same spec, which the sweep farm
        // executes with bit-identical results.
        spec.writeFile(opts.emitGridPath);
        std::printf("Grid spec (%zu jobs) written to %s\n",
                    spec.jobs.size(), opts.emitGridPath.c_str());
        std::exit(0);
    }

    // A failed point is quarantined and reported; the rest of the
    // figure still comes out, and the manifest says exactly what is
    // missing.
    sim::SweepOutcome outcome = sim::farm::runSerial(
        spec, opts.jobs, sim::RetryPolicy{}, opts.cycleBudget,
        opts.wallBudget, opts.manifestPath);
    for (std::size_t i = 0; i < outcome.jobs.size(); ++i) {
        const sim::JobOutcome &jo = outcome.jobs[i];
        const sim::GridJob &g = spec.jobs[i];
        if (jo.status == sim::JobStatus::Quarantined)
            warn("quarantined job %zu (%s %s) after %d attempt(s): "
                 "[%s] %s",
                 i, g.workload.c_str(), g.cfg.notation().c_str(),
                 jo.attempts, jo.error.kind.c_str(),
                 jo.error.message.c_str());
        else if (jo.status == sim::JobStatus::Recovered)
            warn("job %zu (%s %s) recovered on attempt %d from: [%s]",
                 i, g.workload.c_str(), g.cfg.notation().c_str(),
                 jo.attempts, jo.error.kind.c_str());
    }
    if (outcome.degraded)
        warn("sweep degraded: %zu of %zu jobs quarantined",
             outcome.numQuarantined, outcome.jobs.size());
    if (!opts.manifestPath.empty())
        std::printf("Sweep manifest written to %s%s\n",
                    opts.manifestPath.c_str(),
                    outcome.degraded ? " (degraded)" : "");
    if (opts.failFast && outcome.degraded)
        std::exit(EXIT_FAILURE);
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
