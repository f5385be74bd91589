#include "obs/runconfig.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "common/log.h"
#include "fault/error.h"

namespace bds {

namespace detail {

std::uint64_t
parseUint(const std::string &what, const std::string &value)
{
    if (value.empty()
        || value.find_first_not_of("0123456789") != std::string::npos)
        BDS_FATAL(what << " must be a non-negative integer, got '"
                       << value << "'");
    errno = 0;
    std::uint64_t v = std::strtoull(value.c_str(), nullptr, 10);
    if (errno == ERANGE)
        BDS_FATAL(what << " is out of range: '" << value << "'");
    return v;
}

} // namespace detail

namespace {

using detail::parseUint;

/** Validate a scale name (the one knob that is an enumeration). */
void
checkScaleName(const std::string &what, const std::string &name)
{
    if (name != "quick" && name != "standard" && name != "full")
        BDS_FATAL(what << " must be quick, standard or full, got '"
                       << name << "'");
}

/** A 0/1 switch (BDS_SAMPLE, BDS_TRACE). */
bool
parseSwitch(const std::string &what, const std::string &value)
{
    if (value == "0")
        return false;
    if (value == "1")
        return true;
    BDS_FATAL(what << " must be 0 or 1, got '" << value << "'");
}

/** Parse a fail-policy name, fataling on anything unknown. */
FailPolicy
parsePolicy(const std::string &what, const std::string &value)
{
    FailPolicy policy;
    if (!failPolicyFromName(value, &policy))
        BDS_FATAL(what << " must be failfast or quarantine, got '"
                       << value << "'");
    return policy;
}

} // namespace

RunConfig
RunConfig::resolve(const std::string &tool, int argc, char **argv)
{
    RunConfig cfg;
    cfg.tool = tool;
    cfg.applyEnv();
    if (argc > 0 && argv) {
        cfg.argv.assign(argv, argv + argc);
        std::vector<std::string> rest = cfg.applyArgs(
            std::vector<std::string>(argv + 1, argv + argc));
        if (!rest.empty())
            BDS_FATAL(tool << " got an unexpected argument '"
                           << rest.front() << "'");
    }
    return cfg;
}

void
RunConfig::applyEnv()
{
    if (const char *v = std::getenv("BDS_SCALE")) {
        checkScaleName("BDS_SCALE", v);
        scaleName = v;
    }
    if (const char *v = std::getenv("BDS_SEED"))
        seed = parseUint("BDS_SEED", v);
    if (const char *v = std::getenv("BDS_THREADS"))
        parallel.threads =
            static_cast<unsigned>(parseUint("BDS_THREADS", v));
    if (const char *v = std::getenv("BDS_MACHINE")) {
        if (*v == '\0')
            BDS_FATAL("BDS_MACHINE must be a machine spec "
                      "(preset name and/or key=value overrides)");
        machineSpec = v;
    }
    if (const char *v = std::getenv("BDS_METRICS"))
        metricNames = splitList("BDS_METRICS", v);

    if (const char *v = std::getenv("BDS_SAMPLE"))
        sampling.enabled = parseSwitch("BDS_SAMPLE", v);
    if (const char *v = std::getenv("BDS_SAMPLE_INTERVAL")) {
        sampling.intervalUops = parseUint("BDS_SAMPLE_INTERVAL", v);
        if (sampling.intervalUops == 0)
            BDS_FATAL("BDS_SAMPLE_INTERVAL must be positive");
    }
    if (const char *v = std::getenv("BDS_SAMPLE_BBV")) {
        sampling.bbvDims = parseUint("BDS_SAMPLE_BBV", v);
        if (sampling.bbvDims == 0)
            BDS_FATAL("BDS_SAMPLE_BBV must be positive");
    }
    if (const char *v = std::getenv("BDS_SAMPLE_KMAX")) {
        sampling.kMax = parseUint("BDS_SAMPLE_KMAX", v);
        if (sampling.kMax == 0)
            BDS_FATAL("BDS_SAMPLE_KMAX must be positive");
    }
    if (const char *v = std::getenv("BDS_SAMPLE_WARMUP"))
        sampling.warmupIntervals = static_cast<unsigned>(
            parseUint("BDS_SAMPLE_WARMUP", v));
    if (const char *v = std::getenv("BDS_SAMPLE_SEED"))
        sampling.seed = parseUint("BDS_SAMPLE_SEED", v);

    if (const char *v = std::getenv("BDS_FAIL_POLICY"))
        fault.recovery.policy = parsePolicy("BDS_FAIL_POLICY", v);
    if (const char *v = std::getenv("BDS_RETRIES"))
        fault.recovery.maxRetries =
            static_cast<unsigned>(parseUint("BDS_RETRIES", v));
    if (const char *v = std::getenv("BDS_RUN_TIMEOUT_MS"))
        fault.recovery.timeoutMs = parseUint("BDS_RUN_TIMEOUT_MS", v);
    if (const char *v = std::getenv("BDS_FAULT_THROW"))
        fault.throwAt = v;
    if (const char *v = std::getenv("BDS_FAULT_STALL"))
        fault.stallAt = v;
    if (const char *v = std::getenv("BDS_FAULT_CORRUPT"))
        fault.corruptAt = v;
    if (const char *v = std::getenv("BDS_FAULT_ALLOC"))
        fault.allocAt = v;
    if (const char *v = std::getenv("BDS_FAULT_STALL_MS"))
        fault.stallMs = parseUint("BDS_FAULT_STALL_MS", v);
    if (const char *v = std::getenv("BDS_FAULT_ATTEMPTS"))
        fault.attempts = static_cast<unsigned>(
            parseUint("BDS_FAULT_ATTEMPTS", v));
    if (const char *v = std::getenv("BDS_FAULT_IO"))
        fault.ioAt = v;

    if (const char *v = std::getenv("BDS_SERVE_SOCKET"))
        serve.socketPath = v;
    if (const char *v = std::getenv("BDS_SERVE_CACHE")) {
        if (*v == '\0')
            BDS_FATAL("BDS_SERVE_CACHE must name a directory");
        serve.storeDir = v;
    }
    if (const char *v = std::getenv("BDS_SERVE_MAX_INFLIGHT"))
        serve.maxInFlight = static_cast<unsigned>(
            parseUint("BDS_SERVE_MAX_INFLIGHT", v));
    if (const char *v = std::getenv("BDS_SERVE_MAX_QUEUE"))
        serve.maxQueue = static_cast<unsigned>(
            parseUint("BDS_SERVE_MAX_QUEUE", v));
    if (const char *v = std::getenv("BDS_STORE_MAX_BYTES"))
        serve.maxStoreBytes = parseUint("BDS_STORE_MAX_BYTES", v);
    if (const char *v = std::getenv("BDS_SERVE_BYPASS"))
        serve.bypassStore = parseSwitch("BDS_SERVE_BYPASS", v);
    if (const char *v = std::getenv("BDS_SERVE_LOG"))
        serve.logPath = v;

    if (const char *v = std::getenv("BDS_CKPT_DIR")) {
        if (*v == '\0')
            BDS_FATAL("BDS_CKPT_DIR must name a directory");
        ckpt.dir = v;
        ckpt.enabled = true;
    }
    // The explicit switch outranks the directory-implied enable, so
    // BDS_CKPT=0 can park a configured cache without unsetting its dir.
    if (const char *v = std::getenv("BDS_CKPT"))
        ckpt.enabled = parseSwitch("BDS_CKPT", v);
    if (const char *v = std::getenv("BDS_CKPT_MAX_BYTES"))
        ckpt.maxBytes = parseUint("BDS_CKPT_MAX_BYTES", v);

    if (const char *v = std::getenv("BDS_TRACE"))
        trace = parseSwitch("BDS_TRACE", v);
    if (const char *v = std::getenv("BDS_TRACE_FILE")) {
        tracePath = v;
        trace = true;
    }
    if (const char *v = std::getenv("BDS_MANIFEST")) {
        std::string s(v);
        if (s == "0") {
            manifest = false;
        } else if (s == "1") {
            manifest = true;
        } else {
            manifest = true;
            manifestPath = s;
        }
    }
}

std::vector<std::string>
RunConfig::applyArgs(const std::vector<std::string> &args)
{
    std::vector<std::string> rest;
    if (argv.empty())
        argv = args;

    // Flags come as "--flag value" or "--flag=value"; `take` fetches
    // the value either way, fataling on a flag with no value.
    std::size_t i = 0;
    auto take = [&](const std::string &flag,
                    const std::string &inlineVal,
                    bool hasInline) -> std::string {
        if (hasInline)
            return inlineVal;
        if (i + 1 >= args.size())
            BDS_FATAL(flag << " needs a value");
        return args[++i];
    };

    for (; i < args.size(); ++i) {
        const std::string &arg = args[i];
        std::string flag = arg, inlineVal;
        bool hasInline = false;
        if (auto eq = arg.find('='); eq != std::string::npos) {
            flag = arg.substr(0, eq);
            inlineVal = arg.substr(eq + 1);
            hasInline = true;
        }

        if (flag == "--scale") {
            std::string v = take(flag, inlineVal, hasInline);
            checkScaleName("--scale", v);
            scaleName = v;
        } else if (flag == "--seed") {
            seed = parseUint("--seed", take(flag, inlineVal, hasInline));
        } else if (flag == "--threads") {
            parallel.threads = static_cast<unsigned>(
                parseUint("--threads", take(flag, inlineVal, hasInline)));
        } else if (flag == "--machine") {
            machineSpec = take(flag, inlineVal, hasInline);
            if (machineSpec.empty())
                BDS_FATAL("--machine must be a machine spec "
                          "(preset name and/or key=value overrides)");
        } else if (flag == "--metrics") {
            metricNames = splitList("--metrics",
                                    take(flag, inlineVal, hasInline));
        } else if (flag == "--sampled" || flag == "--sample") {
            sampling.enabled = true;
        } else if (flag == "--trace") {
            trace = true;
        } else if (flag == "--no-trace") {
            trace = false;
        } else if (flag == "--trace-file") {
            tracePath = take(flag, inlineVal, hasInline);
            trace = true;
        } else if (flag == "--manifest") {
            manifestPath = take(flag, inlineVal, hasInline);
            manifest = true;
        } else if (flag == "--no-manifest") {
            manifest = false;
        } else if (flag == "--fail-policy") {
            fault.recovery.policy = parsePolicy(
                "--fail-policy", take(flag, inlineVal, hasInline));
        } else if (flag == "--retries") {
            fault.recovery.maxRetries = static_cast<unsigned>(
                parseUint("--retries", take(flag, inlineVal, hasInline)));
        } else if (flag == "--run-timeout-ms") {
            fault.recovery.timeoutMs = parseUint(
                "--run-timeout-ms", take(flag, inlineVal, hasInline));
        } else if (flag == "--fault-throw") {
            fault.throwAt = take(flag, inlineVal, hasInline);
        } else if (flag == "--fault-stall") {
            fault.stallAt = take(flag, inlineVal, hasInline);
        } else if (flag == "--fault-corrupt") {
            fault.corruptAt = take(flag, inlineVal, hasInline);
        } else if (flag == "--fault-alloc") {
            fault.allocAt = take(flag, inlineVal, hasInline);
        } else if (flag == "--fault-stall-ms") {
            fault.stallMs = parseUint(
                "--fault-stall-ms", take(flag, inlineVal, hasInline));
        } else if (flag == "--fault-attempts") {
            fault.attempts = static_cast<unsigned>(parseUint(
                "--fault-attempts", take(flag, inlineVal, hasInline)));
        } else if (flag == "--fault-io") {
            fault.ioAt = take(flag, inlineVal, hasInline);
        } else if (flag == "--serve-socket") {
            serve.socketPath = take(flag, inlineVal, hasInline);
        } else if (flag == "--serve-cache") {
            serve.storeDir = take(flag, inlineVal, hasInline);
            if (serve.storeDir.empty())
                BDS_FATAL("--serve-cache must name a directory");
        } else if (flag == "--serve-max-inflight") {
            serve.maxInFlight = static_cast<unsigned>(parseUint(
                "--serve-max-inflight",
                take(flag, inlineVal, hasInline)));
        } else if (flag == "--serve-max-queue") {
            serve.maxQueue = static_cast<unsigned>(parseUint(
                "--serve-max-queue", take(flag, inlineVal, hasInline)));
        } else if (flag == "--store-max-bytes") {
            serve.maxStoreBytes = parseUint(
                "--store-max-bytes", take(flag, inlineVal, hasInline));
        } else if (flag == "--serve-bypass") {
            serve.bypassStore = true;
        } else if (flag == "--serve-log") {
            serve.logPath = take(flag, inlineVal, hasInline);
        } else if (flag == "--ckpt") {
            ckpt.enabled = true;
        } else if (flag == "--no-ckpt") {
            ckpt.enabled = false;
        } else if (flag == "--ckpt-dir") {
            ckpt.dir = take(flag, inlineVal, hasInline);
            if (ckpt.dir.empty())
                BDS_FATAL("--ckpt-dir must name a directory");
            ckpt.enabled = true;
        } else if (flag == "--ckpt-max-bytes") {
            ckpt.maxBytes = parseUint(
                "--ckpt-max-bytes", take(flag, inlineVal, hasInline));
        } else {
            rest.push_back(arg);
        }
    }
    return rest;
}

std::string
RunConfig::resolvedTracePath() const
{
    return tracePath.empty() ? tool + ".trace.jsonl" : tracePath;
}

std::string
RunConfig::resolvedManifestPath() const
{
    return manifestPath.empty() ? tool + ".manifest.json"
                                : manifestPath;
}

std::string
RunConfig::describe() const
{
    std::ostringstream os;
    os << "scale=" << scaleName << " seed=" << seed
       << " threads=" << parallel.resolved();
    if (machineSpec != "default" && !machineSpec.empty())
        os << " machine=" << machineSpec;
    if (!metricNames.empty())
        os << " metrics=" << metricNames.size() << "/45";
    if (sampling.enabled)
        os << " sampled(interval=" << sampling.intervalUops
           << ",kmax=" << sampling.kMax
           << ",warmup=" << sampling.warmupIntervals << ")";
    if (fault.recovery.policy == FailPolicy::Quarantine
        || fault.recovery.maxRetries > 0
        || fault.recovery.timeoutMs > 0)
        os << " recovery("
           << failPolicyName(fault.recovery.policy)
           << ",retries=" << fault.recovery.maxRetries
           << ",timeout_ms=" << fault.recovery.timeoutMs << ")";
    if (fault.any())
        os << " fault-injection=on";
    if (serve.enabled) {
        os << " serve(store=" << serve.storeDir;
        if (!serve.socketPath.empty())
            os << ",socket=" << serve.socketPath;
        if (serve.maxInFlight)
            os << ",max-inflight=" << serve.maxInFlight;
        if (serve.maxQueue != 1024)
            os << ",max-queue=" << serve.maxQueue;
        if (serve.maxStoreBytes)
            os << ",max-bytes=" << serve.maxStoreBytes;
        if (serve.bypassStore)
            os << ",bypass";
        os << ")";
    }
    if (ckpt.enabled) {
        os << " ckpt(dir=" << ckpt.dir;
        if (ckpt.maxBytes)
            os << ",max-bytes=" << ckpt.maxBytes;
        os << ")";
    }
    if (trace)
        os << " trace=" << resolvedTracePath();
    return os.str();
}

} // namespace bds
