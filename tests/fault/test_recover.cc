/**
 * Tests for guardedRun (src/fault/recover.h): every RunStatus path —
 * clean, retried-ok, exhausted retries, watchdog timeout — plus the
 * SweepReport helpers built over the records.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "fault/recover.h"

namespace bds {
namespace {

TEST(GuardedRun, CleanBodyIsOkOnTheFirstAttempt)
{
    RecoveryOptions rec;
    unsigned calls = 0;
    RunRecord r = guardedRun("H-Sort", rec,
                             [&](const AttemptContext &) { ++calls; });
    EXPECT_EQ(r.status, RunStatus::Ok);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_EQ(r.code, ErrorCode::None);
    EXPECT_EQ(calls, 1u);
    EXPECT_GE(r.seconds, 0.0);
}

TEST(GuardedRun, RetrySucceedsAndKeepsTheFailureCause)
{
    RecoveryOptions rec;
    rec.maxRetries = 2;
    unsigned calls = 0;
    RunRecord r = guardedRun(
        "H-Sort", rec, [&](const AttemptContext &ctx) {
            ++calls;
            EXPECT_EQ(ctx.attempt, calls - 1);
            if (ctx.attempt == 0)
                BDS_RAISE(ErrorCode::InjectedFault, "first try fails");
        });
    EXPECT_EQ(r.status, RunStatus::RetriedOk);
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(calls, 2u);
    // The record stays diagnosable: the last failed attempt's cause.
    EXPECT_EQ(r.code, ErrorCode::InjectedFault);
}

TEST(GuardedRun, ExhaustedRetriesEndFailed)
{
    RecoveryOptions rec;
    rec.maxRetries = 1;
    unsigned calls = 0;
    RunRecord r = guardedRun(
        "S-Grep", rec, [&](const AttemptContext &) {
            ++calls;
            throw std::runtime_error("engine exploded");
        });
    EXPECT_EQ(r.status, RunStatus::Failed);
    EXPECT_EQ(r.attempts, 2u); // first try + one retry
    EXPECT_EQ(calls, 2u);
    EXPECT_EQ(r.code, ErrorCode::WorkloadFailure);
    EXPECT_NE(r.message.find("engine exploded"), std::string::npos);
}

TEST(GuardedRun, WatchdogDeadlineEndsTimedOut)
{
    RecoveryOptions rec;
    rec.timeoutMs = 5;
    RunRecord r = guardedRun(
        "H-Bayes", rec, [&](const AttemptContext &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            faultCheckpoint(); // cooperative: the body checks in
        });
    EXPECT_EQ(r.status, RunStatus::TimedOut);
    EXPECT_EQ(r.code, ErrorCode::Timeout);
}

TEST(GuardedRun, BadAllocMapsToAllocFailure)
{
    RecoveryOptions rec;
    RunRecord r = guardedRun("H-Sort", rec, [&](const AttemptContext &) {
        throw std::bad_alloc();
    });
    EXPECT_EQ(r.status, RunStatus::Failed);
    EXPECT_EQ(r.code, ErrorCode::AllocFailure);
}

TEST(SweepReportHelpers, SurvivorsAndFailureViews)
{
    SweepReport rep;
    rep.records = {
        RunRecord{"H-Sort", RunStatus::Ok, 1, ErrorCode::None, "", 0.1},
        RunRecord{"H-Grep", RunStatus::Quarantined, 2,
                  ErrorCode::InjectedFault, "boom", 0.2},
        RunRecord{"S-Sort", RunStatus::RetriedOk, 2,
                  ErrorCode::Timeout, "slow", 0.3},
    };
    rep.survivors = {0, 2};

    EXPECT_FALSE(rep.allOk());
    EXPECT_EQ(rep.survivorNames(),
              (std::vector<std::string>{"H-Sort", "S-Sort"}));
    EXPECT_EQ(rep.failures().size(), 2u); // quarantined + retried
    EXPECT_EQ(rep.quarantinedNames(),
              (std::vector<std::string>{"H-Grep"}));

    rep.survivors = {0, 1, 2};
    EXPECT_TRUE(rep.allOk());
}

TEST(SweepReportHelpers, StatusAndPolicyNamesRoundTrip)
{
    for (unsigned s = 0;
         s <= static_cast<unsigned>(RunStatus::Quarantined); ++s) {
        RunStatus status = static_cast<RunStatus>(s), parsed;
        EXPECT_TRUE(runStatusFromName(runStatusName(status), &parsed));
        EXPECT_EQ(parsed, status);
    }
    FailPolicy p;
    EXPECT_TRUE(failPolicyFromName("quarantine", &p));
    EXPECT_EQ(p, FailPolicy::Quarantine);
    EXPECT_FALSE(failPolicyFromName("explode", &p));
}

} // namespace
} // namespace bds
