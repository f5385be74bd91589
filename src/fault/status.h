/**
 * @file
 * Per-workload run statuses and the SweepReport a fault-tolerant
 * sweep produces next to its metric matrix: one RunRecord per
 * attempted workload (status, attempts, typed failure code) plus the
 * surviving row set, so callers can label the possibly-shrunken
 * matrix and manifests can record every failure.
 */

#ifndef BDS_FAULT_STATUS_H
#define BDS_FAULT_STATUS_H

#include <cstddef>
#include <string>
#include <vector>

#include "fault/error.h"
#include "fault/options.h"

namespace bds {

/** Final disposition of one workload in a sweep. */
enum class RunStatus : unsigned
{
    Ok,          ///< succeeded on the first attempt
    RetriedOk,   ///< succeeded after at least one failed attempt
    Failed,      ///< exhausted its retries; no result
    TimedOut,    ///< last attempt hit the watchdog; no result
    Quarantined, ///< failed/timed out and was dropped by quarantine
};

/** Stable snake_case name ("ok", "timed_out", "quarantined", ...). */
const char *runStatusName(RunStatus status);

/** Parse a runStatusName(); returns false for unknown names. */
bool runStatusFromName(const std::string &name, RunStatus *out);

/** True for statuses that produced a usable result row. */
inline bool
runStatusOk(RunStatus status)
{
    return status == RunStatus::Ok || status == RunStatus::RetriedOk;
}

/** Outcome of running one workload under the recovery policy. */
struct RunRecord
{
    std::string name;                  ///< workload label ("H-Sort")
    RunStatus status = RunStatus::Ok;  ///< final disposition
    unsigned attempts = 1;             ///< attempts consumed (>= 1)
    ErrorCode code = ErrorCode::None;  ///< last failure code
    std::string message;               ///< last failure message
    double seconds = 0.0;              ///< wall-clock across attempts
};

/** Everything a fault-tolerant sweep reports about itself. */
struct SweepReport
{
    /** One record per workload, in sweep (allWorkloads) order. */
    std::vector<RunRecord> records;

    /**
     * Indices into `records` whose workloads produced a result, in
     * order: row i of the returned matrix is records[survivors[i]].
     */
    std::vector<std::size_t> survivors;

    /** True when every workload succeeded (no dropped rows). */
    bool allOk() const;

    /** Names of the surviving rows, in matrix row order. */
    std::vector<std::string> survivorNames() const;

    /** Records that did not end Ok (retried, failed, quarantined). */
    std::vector<RunRecord> failures() const;

    /** Names with status Quarantined, in sweep order. */
    std::vector<std::string> quarantinedNames() const;
};

} // namespace bds

#endif // BDS_FAULT_STATUS_H
