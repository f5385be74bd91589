/**
 * @file
 * Knobs for the fault-tolerance layer: the recovery policy applied
 * by the one sweep every route runs (guardedSweep in
 * workloads/registry.h) and the deterministic fault-injection spec.
 *
 * Kept dependency-free (strings and integers only) so RunConfig can
 * embed a FaultOptions without bds_obs linking bds_fault's
 * machinery; FaultInjector (src/fault/inject.h) interprets the spec.
 */

#ifndef BDS_FAULT_OPTIONS_H
#define BDS_FAULT_OPTIONS_H

#include <cstdint>
#include <string>

namespace bds {

/** What a sweep does when one workload fails for good. */
enum class FailPolicy : unsigned
{
    /**
     * Rethrow the failure (lowest workload index first) after the
     * sweep settles: the run exits nonzero with the typed error, the
     * pre-fault-layer contract.
     */
    FailFast,

    /**
     * Drop the failed workloads, record them in the SweepReport /
     * RunManifest, and continue the analysis on the surviving rows.
     */
    Quarantine,
};

/** Stable knob name of a policy ("failfast" / "quarantine"). */
const char *failPolicyName(FailPolicy policy);

/** Parse a failPolicyName(); returns false for unknown names. */
bool failPolicyFromName(const std::string &name, FailPolicy *out);

/** How a sweep isolates and retries failing workloads. */
struct RecoveryOptions
{
    /** Disposition of workloads that exhaust their retries. */
    FailPolicy policy = FailPolicy::FailFast;

    /**
     * Retries per workload after the first failed attempt. Attempt
     * `a` derives its data seed from (workload, node, a), so every
     * retry — and therefore the whole recovered sweep — is bitwise
     * reproducible across reruns and thread counts.
     */
    unsigned maxRetries = 0;

    /**
     * Watchdog wall-clock budget per workload attempt, in
     * milliseconds; 0 disables the watchdog. Enforced cooperatively:
     * the execution path checks the deadline at its fault
     * checkpoints (attempt start, each stall slice) and raises a
     * typed Timeout past it.
     */
    std::uint64_t timeoutMs = 0;
};

/**
 * Deterministic fault-injection spec (BDS_FAULT_* / --fault-*).
 *
 * Each site knob is a comma-separated list of targets — workload
 * names ("H-Sort,S-Grep") for the workload sites, site labels
 * ("datagen") for the allocation site — or "*" for every target.
 * Injection is decided purely by (site, target, attempt) membership:
 * no RNG, so a given spec always fails the same workloads at the
 * same points.
 */
struct FaultOptions
{
    /** Recovery policy the sweep drivers apply. */
    RecoveryOptions recovery;

    /** Workloads that throw a typed InjectedFault when executed. */
    std::string throwAt;

    /** Workloads that stall for stallMs before executing. */
    std::string stallAt;

    /**
     * Workloads whose extracted metric vector is poisoned with NaN
     * (simulating counter/trace corruption); the degenerate-data
     * guard then rejects the result.
     */
    std::string corruptAt;

    /** Allocation sites (e.g. "datagen") that fail with AllocFailure. */
    std::string allocAt;

    /**
     * Shared-store I/O sites that fail deterministically:
     * "store.write" (entry write), "store.rename" (publish rename),
     * "store.lease" (lease acquisition), "store.enospc" (disk-full
     * on write), or "*" for all of them. Unlike the workload sites,
     * `attempts` bounds the *total number of fires* across the run
     * (0 = fire every time) — so `attempts=1` fails exactly one
     * store operation and lets the store heal, pinning the
     * degrade-then-recover path. Storage-only by construction: the
     * spec never changes computed bytes, so it stays outside the
     * canonical RunConfig hash.
     */
    std::string ioAt;

    /** Stall duration for stallAt targets, in milliseconds. */
    std::uint64_t stallMs = 50;

    /**
     * Inject only while the attempt index is below this bound; 0
     * means every attempt. 1 with maxRetries >= 1 exercises the
     * retried-ok path: the first attempt fails, the retry succeeds.
     */
    unsigned attempts = 0;

    /** True when any injection site is configured. */
    bool
    any() const
    {
        return !throwAt.empty() || !stallAt.empty()
            || !corruptAt.empty() || !allocAt.empty()
            || !ioAt.empty();
    }
};

} // namespace bds

#endif // BDS_FAULT_OPTIONS_H
