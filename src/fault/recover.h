/**
 * @file
 * guardedRun(): the failure-isolation driver behind guardedSweep()
 * (workloads/registry.h), the one sweep every route runs.
 *
 * One call runs one workload's attempt loop: execute the body under
 * an installed AttemptScope (watchdog deadline + attempt index),
 * catch anything it throws, retry up to RecoveryOptions::maxRetries
 * with the attempt index advancing (the body derives attempt-salted
 * seeds from it, keeping retries bitwise-reproducible), and return a
 * RunRecord describing the final disposition. guardedRun never
 * throws; policy — rethrow under fail-fast, drop under quarantine —
 * is applied by the sweep after all slots settle, in workload order,
 * so the outcome is deterministic for every thread count.
 */

#ifndef BDS_FAULT_RECOVER_H
#define BDS_FAULT_RECOVER_H

#include <chrono>
#include <new>

#include "common/log.h"
#include "fault/error.h"
#include "fault/inject.h"
#include "fault/status.h"

namespace bds {

/**
 * Run `body` with failure isolation and bounded retries.
 *
 * @param name Workload label for the record and retry logging.
 * @param rec Retry/timeout policy (the FailPolicy itself is applied
 *        by the caller over the finished records).
 * @param body Callable taking (const AttemptContext &); it must
 *        derive any attempt-dependent seed from ctx.attempt and
 *        re-install an AttemptScope inside pool tasks it fans out
 *        to (thread-locals do not cross threads).
 */
template <typename Fn>
RunRecord
guardedRun(const std::string &name, const RecoveryOptions &rec,
           Fn &&body)
{
    RunRecord record;
    record.name = name;
    auto start = std::chrono::steady_clock::now();
    for (unsigned attempt = 0;; ++attempt) {
        record.attempts = attempt + 1;
        AttemptContext ctx;
        ctx.attempt = attempt;
        if (rec.timeoutMs > 0) {
            ctx.hasDeadline = true;
            ctx.deadline = std::chrono::steady_clock::now()
                + std::chrono::milliseconds(rec.timeoutMs);
        }
        try {
            AttemptScope scope(ctx);
            faultCheckpoint();
            body(ctx);
            // On a retried success, code/message keep the last failed
            // attempt's cause — the failure record stays diagnosable.
            record.status = attempt == 0 ? RunStatus::Ok
                                         : RunStatus::RetriedOk;
            break;
        } catch (const Error &e) {
            record.code = e.code();
            record.message = e.what();
        } catch (const std::bad_alloc &) {
            record.code = ErrorCode::AllocFailure;
            record.message = "allocation failed";
        } catch (const std::exception &e) {
            record.code = ErrorCode::WorkloadFailure;
            record.message = e.what();
        }
        if (attempt >= rec.maxRetries) {
            record.status = record.code == ErrorCode::Timeout
                ? RunStatus::TimedOut
                : RunStatus::Failed;
            break;
        }
        warn("workload " + name + " attempt "
             + std::to_string(attempt + 1) + " failed ("
             + std::string(errorCodeName(record.code))
             + "), retrying");
    }
    record.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return record;
}

} // namespace bds

#endif // BDS_FAULT_RECOVER_H
