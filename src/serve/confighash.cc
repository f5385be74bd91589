#include "serve/confighash.h"

#include "uarch/machine.h"

namespace bds {

std::string
canonicalRunConfig(const RunConfig &cfg)
{
    // Fixed field order, integers rendered in decimal, booleans as
    // 0/1 — never touch this rendering without bumping
    // kConfigHashSchemaVersion (the stability test pins the result).
    auto field = [](std::string &out, const char *key,
                    const std::string &value) {
        out += key;
        out += '=';
        out += value;
        out += '\n';
    };
    using std::to_string;
    std::string out =
        "bds-runconfig-v" + to_string(kConfigHashSchemaVersion) + '\n';
    field(out, "scale", cfg.scaleName);
    field(out, "seed", to_string(cfg.seed));
    // The *resolved* geometry, not the spec string: equivalent
    // spellings of one machine share a cell, and any override that
    // actually changes the geometry changes the key.
    field(out, "machine",
          canonicalMachineText(resolveMachineSpec(cfg.machineSpec)));
    const SamplingOptions &smp = cfg.sampling;
    field(out, "sampling.enabled", smp.enabled ? "1" : "0");
    field(out, "sampling.interval_uops", to_string(smp.intervalUops));
    field(out, "sampling.bbv_dims", to_string(smp.bbvDims));
    field(out, "sampling.k_min", to_string(smp.kMin));
    field(out, "sampling.k_max", to_string(smp.kMax));
    field(out, "sampling.warmup_intervals",
          to_string(smp.warmupIntervals));
    field(out, "sampling.seed", to_string(smp.seed));
    const RecoveryOptions &rec = cfg.fault.recovery;
    field(out, "recovery.policy", failPolicyName(rec.policy));
    field(out, "recovery.max_retries", to_string(rec.maxRetries));
    field(out, "recovery.timeout_ms", to_string(rec.timeoutMs));
    field(out, "fault.throw", cfg.fault.throwAt);
    field(out, "fault.stall", cfg.fault.stallAt);
    field(out, "fault.corrupt", cfg.fault.corruptAt);
    field(out, "fault.alloc", cfg.fault.allocAt);
    field(out, "fault.stall_ms", to_string(cfg.fault.stallMs));
    field(out, "fault.attempts", to_string(cfg.fault.attempts));
    return out;
}

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
runConfigHash(const RunConfig &cfg)
{
    return fnv1a64(canonicalRunConfig(cfg));
}

std::string
toHex64(std::uint64_t v)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

std::string
runConfigHashHex(const RunConfig &cfg)
{
    return toHex64(runConfigHash(cfg));
}

} // namespace bds
