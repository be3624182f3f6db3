#include "config/cli.hh"

#include <algorithm>
#include <limits>

#include "util/error.hh"
#include "util/log.hh"
#include "util/str.hh"

namespace ddsim::config {

// GCC 12's -Wrestrict mis-fires on the std::string substr/indexing
// sequence below (GCC PR105329); the code is well-defined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"

CliArgs::CliArgs(int argc, const char *const *argv)
{
    bool passthrough = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--") {
            passthrough = true;
        } else if (startsWith(arg, "--")) {
            std::string key;
            auto eq = arg.find('=');
            if (eq == std::string::npos) {
                key = arg.substr(2);
                opts[key] = "1";
            } else {
                key = arg.substr(2, eq - 2);
                opts[key] = arg.substr(eq + 1);
            }
            if (passthrough)
                knownKeys.insert(key);
        } else {
            pos.push_back(arg);
        }
    }
}

#pragma GCC diagnostic pop

bool
CliArgs::has(const std::string &key) const
{
    knownKeys.insert(key);
    return opts.count(key) != 0;
}

std::string
CliArgs::get(const std::string &key, const std::string &def) const
{
    knownKeys.insert(key);
    auto it = opts.find(key);
    return it == opts.end() ? def : it->second;
}

std::int64_t
CliArgs::getInt(const std::string &key, std::int64_t def) const
{
    knownKeys.insert(key);
    auto it = opts.find(key);
    if (it == opts.end())
        return def;
    std::int64_t v;
    if (!parseInt(it->second, v))
        fatal("option --%s expects an integer, got '%s'", key.c_str(),
              it->second.c_str());
    return v;
}

double
CliArgs::getDouble(const std::string &key, double def) const
{
    knownKeys.insert(key);
    auto it = opts.find(key);
    if (it == opts.end())
        return def;
    double v;
    if (!parseDouble(it->second, v))
        fatal("option --%s expects a number, got '%s'", key.c_str(),
              it->second.c_str());
    return v;
}

std::size_t
CliArgs::getMbBytes(const std::string &key, std::size_t defBytes) const
{
    knownKeys.insert(key);
    auto it = opts.find(key);
    if (it == opts.end())
        return defBytes;
    std::int64_t mb;
    if (!parseInt(it->second, mb))
        raise(ConfigError(
            key, format("option --%s expects an integer megabyte "
                        "count, got '%s'",
                        key.c_str(), it->second.c_str())));
    if (mb < 0)
        raise(ConfigError(
            key,
            format("option --%s: a megabyte budget cannot be "
                   "negative (got %lld)",
                   key.c_str(), static_cast<long long>(mb))));
    constexpr std::uint64_t maxMb =
        std::numeric_limits<std::size_t>::max() >> 20;
    if (static_cast<std::uint64_t>(mb) > maxMb)
        raise(ConfigError(
            key, format("option --%s: %lld MB overflows the byte "
                        "count (max %llu MB)",
                        key.c_str(), static_cast<long long>(mb),
                        static_cast<unsigned long long>(maxMb))));
    return static_cast<std::size_t>(mb) << 20;
}

double
CliArgs::getSeconds(const std::string &key, double def) const
{
    knownKeys.insert(key);
    auto it = opts.find(key);
    if (it == opts.end())
        return def;
    double secs;
    if (!parseDouble(it->second, secs))
        raise(ConfigError(
            key, format("option --%s expects a seconds value, got "
                        "'%s'",
                        key.c_str(), it->second.c_str())));
    if (secs < 0)
        raise(ConfigError(
            key, format("option --%s: a duration cannot be negative "
                        "(got %s)",
                        key.c_str(), it->second.c_str())));
    return secs;
}

bool
CliArgs::getBool(const std::string &key, bool def) const
{
    knownKeys.insert(key);
    auto it = opts.find(key);
    if (it == opts.end())
        return def;
    std::string v = toLower(it->second);
    return v == "1" || v == "true" || v == "yes" || v == "on";
}

void
CliArgs::markKnown(const std::string &key) const
{
    knownKeys.insert(key);
}

void
CliArgs::rejectUnknown() const
{
    for (const auto &[key, value] : opts) {
        if (knownKeys.count(key))
            continue;
        std::string best;
        std::size_t bestDist = 3; // Suggest only close matches.
        for (const std::string &k : knownKeys) {
            std::size_t d = editDistance(key, k);
            if (d < bestDist) {
                bestDist = d;
                best = k;
            }
        }
        if (!best.empty())
            fatal("unrecognized option --%s (did you mean --%s?); "
                  "use \"--\" before tool-specific options to skip "
                  "this check",
                  key.c_str(), best.c_str());
        fatal("unrecognized option --%s; use \"--\" before "
              "tool-specific options to skip this check",
              key.c_str());
    }
}

void
applyOverrides(MachineConfig &cfg, const CliArgs &args)
{
    auto intOpt = [&](const char *key, auto &field) {
        if (args.has(key))
            field = static_cast<std::remove_reference_t<decltype(field)>>(
                args.getInt(key, 0));
    };
    auto sizeOpt = [&](const char *key, std::uint32_t &field) {
        if (args.has(key)) {
            std::uint64_t v;
            if (!parseSize(args.get(key), v))
                fatal("option --%s expects a size (e.g. 2K)", key);
            field = static_cast<std::uint32_t>(v);
        }
    };

    intOpt("width", cfg.issueWidth);
    if (args.has("width")) {
        cfg.fetchWidth = cfg.issueWidth;
        cfg.commitWidth = cfg.issueWidth;
    }
    intOpt("rob", cfg.robSize);
    intOpt("lsq", cfg.lsqSize);
    intOpt("lvaq", cfg.lvaqSize);
    intOpt("l1.ports", cfg.l1.ports);
    sizeOpt("l1.size", cfg.l1.sizeBytes);
    intOpt("l1.assoc", cfg.l1.assoc);
    intOpt("l1.lat", cfg.l1.hitLatency);
    intOpt("l1.banks", cfg.l1.banks);
    intOpt("l1.mshrs", cfg.l1.mshrs);
    intOpt("lvc.ports", cfg.lvc.ports);
    intOpt("lvc.banks", cfg.lvc.banks);
    intOpt("lvc.mshrs", cfg.lvc.mshrs);
    sizeOpt("lvc.size", cfg.lvc.sizeBytes);
    intOpt("lvc.assoc", cfg.lvc.assoc);
    intOpt("lvc.lat", cfg.lvc.hitLatency);
    intOpt("l2.lat", cfg.l2.hitLatency);
    intOpt("mem.lat", cfg.memLatency);
    if (args.has("lvc"))
        cfg.lvcEnabled = args.getBool("lvc");
    if (args.has("classifier"))
        cfg.classifier =
            classifierFromName(toLower(args.get("classifier")));
    if (args.has("fastfwd"))
        cfg.fastForward = args.getBool("fastfwd");
    intOpt("combining", cfg.combining);

    // Every recognized config key has been queried above, so anything
    // left unqueried is a typo (e.g. --l1.siez) that would otherwise
    // silently run the wrong experiment.
    args.rejectUnknown();

    cfg.validate();
}

} // namespace ddsim::config
