/**
 * @file
 * The quarantine isolation contract (docs/ROBUSTNESS.md): when the
 * fault injector kills some workloads under FailPolicy::Quarantine,
 * the survivors' metric rows are bitwise identical to the same rows
 * of a clean sweep — a failure never perturbs its neighbours — and
 * the contract holds at every thread count.
 *
 * Every case runs over both sweep routes, the full runAll and the
 * sampled runAll, which share one guarded sweep (guardedSweep): the
 * same records, the same settle and the same fault.* counter deltas.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "fault/inject.h"
#include "obs/metrics.h"
#include "sample/characterizer.h"
#include "workloads/registry.h"

namespace bds {
namespace {

/** The three workloads every test in this file kills. */
const char *const kVictims = "H-Grep,S-Union,H-Bayes";
constexpr std::size_t kNumVictims = 3;

/** The sweep routes that share the guarded sweep. */
enum class Route
{
    Full,
    Sampled,
};

const Route kRoutes[] = {Route::Full, Route::Sampled};

const char *
routeName(Route route)
{
    return route == Route::Full ? "full" : "sampled";
}

/** Run the route's 32-workload sweep on `runner`. */
Matrix
runSweep(Route route, const WorkloadRunner &runner, SweepReport *report)
{
    if (route == Route::Full)
        return runner.runAll(nullptr, nullptr, report);
    SampledCharacterizer sampler(runner, SamplingOptions{});
    return sampler.runAll(nullptr, report);
}

/** The fault.* counters one sweep adds. */
struct FaultDeltas
{
    std::uint64_t quarantined = 0;
    std::uint64_t retries = 0;
    std::uint64_t retriedOk = 0;
};

/** Counter snapshot; subtract two to get a sweep's deltas. */
FaultDeltas
faultCounters()
{
    FaultDeltas d;
    d.quarantined = counters::value(Counter::FaultQuarantined);
    d.retries = counters::value(Counter::FaultRetries);
    d.retriedOk = counters::value(Counter::FaultRetriedOk);
    return d;
}

/** Expect the counters moved by exactly `want` since `before`. */
void
expectDeltas(const FaultDeltas &before, const FaultDeltas &want)
{
    const FaultDeltas now = faultCounters();
    EXPECT_EQ(now.quarantined - before.quarantined, want.quarantined);
    EXPECT_EQ(now.retries - before.retries, want.retries);
    EXPECT_EQ(now.retriedOk - before.retriedOk, want.retriedOk);
}

/** Quick-scale quarantine sweep; arms the injector when `inject`. */
SweepReport
sweep(Route route, unsigned threads, bool inject, Matrix *matrix)
{
    if (inject) {
        FaultOptions opts;
        opts.throwAt = kVictims;
        FaultInjector::global().arm(opts);
    }
    WorkloadRunner runner(NodeConfig::defaultSim(),
                          ScaleProfile::quick(), 42);
    runner.setParallel(ParallelOptions{threads});
    RecoveryOptions rec;
    rec.policy = FailPolicy::Quarantine;
    runner.setRecovery(rec);
    SweepReport report;
    *matrix = runSweep(route, runner, &report);
    FaultInjector::global().disarm();
    return report;
}

class QuarantineIsolation : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjector::global().disarm(); }

    /** Survivor rows must equal the clean run's rows for the same
     *  workloads, bit for bit. */
    void expectSurvivorRowsMatchClean(Route route, unsigned threads)
    {
        SCOPED_TRACE(routeName(route));
        Matrix clean, survived;
        FaultDeltas before = faultCounters();
        SweepReport clean_report = sweep(route, threads, false, &clean);
        expectDeltas(before, {});
        before = faultCounters();
        SweepReport report = sweep(route, threads, true, &survived);
        expectDeltas(before, {kNumVictims, 0, 0});

        std::vector<WorkloadId> all = allWorkloads();
        ASSERT_EQ(clean.rows(), all.size());
        ASSERT_EQ(survived.rows(), all.size() - kNumVictims);
        ASSERT_TRUE(clean_report.allOk());
        EXPECT_FALSE(report.allOk());
        EXPECT_EQ(report.quarantinedNames(),
                  (std::vector<std::string>{"H-Grep", "H-Bayes",
                                            "S-Union"}));

        // Map each clean row by name, then compare survivor rows.
        std::map<std::string, std::size_t> clean_row;
        for (std::size_t r = 0; r < all.size(); ++r)
            clean_row[all[r].name()] = r;
        std::vector<std::string> survivors = report.survivorNames();
        ASSERT_EQ(survivors.size(), survived.rows());
        for (std::size_t r = 0; r < survivors.size(); ++r) {
            std::size_t cr = clean_row.at(survivors[r]);
            for (std::size_t c = 0; c < clean.cols(); ++c) {
                double x = clean(cr, c), y = survived(r, c);
                EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0)
                    << survivors[r] << " col " << c << ": " << x
                    << " vs " << y;
            }
        }
    }
};

TEST_F(QuarantineIsolation, SurvivorRowsBitwiseIdenticalSerial)
{
    for (Route route : kRoutes)
        expectSurvivorRowsMatchClean(route, 1);
}

TEST_F(QuarantineIsolation, SurvivorRowsBitwiseIdenticalParallel)
{
    for (Route route : kRoutes)
        expectSurvivorRowsMatchClean(route, 4);
}

TEST_F(QuarantineIsolation, RecordsNameEveryVictimWithItsCause)
{
    for (Route route : kRoutes) {
        SCOPED_TRACE(routeName(route));
        Matrix m;
        const FaultDeltas before = faultCounters();
        SweepReport report = sweep(route, 2, true, &m);
        expectDeltas(before, {kNumVictims, 0, 0});
        ASSERT_EQ(report.records.size(), allWorkloads().size());
        std::size_t quarantined = 0;
        for (const RunRecord &r : report.records)
            if (r.status == RunStatus::Quarantined) {
                ++quarantined;
                EXPECT_EQ(r.code, ErrorCode::InjectedFault) << r.name;
                EXPECT_EQ(r.attempts, 1u) << r.name;
            } else {
                EXPECT_EQ(r.status, RunStatus::Ok) << r.name;
            }
        EXPECT_EQ(quarantined, kNumVictims);
    }
}

TEST_F(QuarantineIsolation, RetriesHealAnAttemptGatedFault)
{
    for (Route route : kRoutes) {
        SCOPED_TRACE(routeName(route));
        // Injection limited to attempt 0 + one retry: every victim
        // heals and the sweep is whole again.
        FaultOptions opts;
        opts.throwAt = kVictims;
        opts.attempts = 1;
        FaultInjector::global().arm(opts);
        WorkloadRunner runner(NodeConfig::defaultSim(),
                              ScaleProfile::quick(), 42);
        RecoveryOptions rec;
        rec.policy = FailPolicy::Quarantine;
        rec.maxRetries = 1;
        runner.setRecovery(rec);
        SweepReport report;
        const FaultDeltas before = faultCounters();
        Matrix m = runSweep(route, runner, &report);
        FaultInjector::global().disarm();
        expectDeltas(before, {0, kNumVictims, kNumVictims});

        EXPECT_TRUE(report.allOk());
        EXPECT_EQ(m.rows(), allWorkloads().size());
        std::size_t retried = 0;
        for (const RunRecord &r : report.records)
            if (r.status == RunStatus::RetriedOk) {
                ++retried;
                EXPECT_EQ(r.attempts, 2u) << r.name;
            }
        EXPECT_EQ(retried, kNumVictims);
    }
}

TEST_F(QuarantineIsolation, FailFastRethrowsTheLowestIndexedFailure)
{
    for (Route route : kRoutes) {
        SCOPED_TRACE(routeName(route));
        FaultOptions opts;
        opts.throwAt = kVictims;
        FaultInjector::global().arm(opts);
        WorkloadRunner runner(NodeConfig::defaultSim(),
                              ScaleProfile::quick(), 42);
        // Default policy is FailFast; H-Grep is the earliest victim
        // in allWorkloads() order, so the rethrown error must name
        // it. The rethrow comes before any fault.* counter is added.
        const FaultDeltas before = faultCounters();
        try {
            SweepReport report;
            runSweep(route, runner, &report);
            ADD_FAILURE() << "fail-fast sweep did not throw";
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::InjectedFault);
            EXPECT_NE(std::string(e.what()).find("H-Grep"),
                      std::string::npos)
                << e.what();
        }
        FaultInjector::global().disarm();
        expectDeltas(before, {});
    }
}

} // namespace
} // namespace bds
