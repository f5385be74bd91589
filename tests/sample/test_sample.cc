/**
 * @file
 * Unit tests for the sampled-simulation subsystem: interval
 * profiling, representative selection, warmed replay, and metric
 * reconstruction.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/log.h"
#include "fault/error.h"
#include "fault/inject.h"
#include "sample/capture.h"
#include "sample/characterizer.h"
#include "sample/estimate.h"
#include "sample/interval.h"
#include "sample/picker.h"
#include "sample/replay.h"
#include "trace/memlayout.h"
#include "trace/runtime.h"
#include "uarch/machine.h"
#include "uarch/system.h"

namespace {

using bds::AddressSpace;
using bds::CodeImage;
using bds::ExecContext;
using bds::IntervalProfiler;
using bds::IntervalRecord;
using bds::Matrix;
using bds::PickResult;
using bds::PmcCounters;
using bds::RecordingTarget;
using bds::Region;
using bds::Representative;
using bds::RepresentativePicker;
using bds::SampledReplayer;
using bds::SampledReplayStats;
using bds::SamplingOptions;
using bds::TraceRecorder;

/** A short synthetic trace: loads, branches, stores on one core. */
TraceRecorder
makeTrace(int iterations)
{
    TraceRecorder rec;
    AddressSpace space;
    CodeImage user(space, Region::UserCode);
    ExecContext ctx(rec, 0, user.defineFunction(128));
    std::uint64_t buf = space.allocate(Region::Heap, 1 << 20);
    for (int i = 0; i < iterations; ++i) {
        ctx.load(buf + (i * 64) % (1 << 20));
        ctx.intOps(2);
        ctx.branch(i % 3 == 0);
        if (i % 4 == 0)
            ctx.store(buf + (i * 128) % (1 << 20));
    }
    return rec;
}

TEST(IntervalProfiler, SplitsAtExactBoundaries)
{
    TraceRecorder rec = makeTrace(200);
    std::uint64_t total = rec.size();

    IntervalProfiler prof(100, 8);
    rec.replay(prof);
    prof.finish();

    ASSERT_GT(prof.numIntervals(), 1u);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < prof.intervals().size(); ++i) {
        const IntervalRecord &iv = prof.intervals()[i];
        EXPECT_EQ(iv.firstOp, seen);
        seen += iv.opCount;
        // Every interval but the trailing partial is exactly full.
        if (i + 1 < prof.intervals().size())
            EXPECT_EQ(iv.opCount, 100u);
    }
    EXPECT_EQ(seen, total);
}

TEST(IntervalProfiler, FinishIsIdempotent)
{
    TraceRecorder rec = makeTrace(30);
    IntervalProfiler prof(1000, 8);
    rec.replay(prof);
    prof.finish();
    std::size_t n = prof.numIntervals();
    prof.finish();
    EXPECT_EQ(prof.numIntervals(), n);
    EXPECT_EQ(n, 1u); // fewer ops than one interval: one partial
}

TEST(IntervalProfiler, FeaturesAreNormalizedPerUop)
{
    TraceRecorder rec = makeTrace(500);
    IntervalProfiler prof(128, 16);
    rec.replay(prof);
    prof.finish();

    Matrix f = prof.featureMatrix();
    ASSERT_EQ(f.rows(), prof.numIntervals());
    ASSERT_EQ(f.cols(), 16u + 6u + 2u);
    for (std::size_t r = 0; r < f.rows(); ++r) {
        double class_sum = 0.0, mode_sum = 0.0;
        for (std::size_t c = 16; c < 22; ++c)
            class_sum += f(r, c);
        for (std::size_t c = 22; c < 24; ++c)
            mode_sum += f(r, c);
        // Op-class and mode shares each partition the interval's uops.
        EXPECT_NEAR(class_sum, 1.0, 1e-9);
        EXPECT_NEAR(mode_sum, 1.0, 1e-9);
        for (std::size_t c = 0; c < f.cols(); ++c)
            EXPECT_GE(f(r, c), 0.0);
    }
}

TEST(IntervalProfiler, RejectsZeroKnobs)
{
    EXPECT_THROW(IntervalProfiler(0, 8), bds::FatalError);
    EXPECT_THROW(IntervalProfiler(100, 0), bds::FatalError);
}

TEST(RecordingTarget, RecordsWithoutSimulating)
{
    RecordingTarget target(4);
    EXPECT_EQ(target.numCores(), 4u);
    AddressSpace space;
    CodeImage user(space, Region::UserCode);
    ExecContext ctx(target, 1, user.defineFunction(64));
    ctx.intOps(5);
    target.dmaFill(0xffff900000000000ULL, 4096);
    EXPECT_EQ(target.trace().size(), 6u); // 5 ops + the DMA entry

    std::uint64_t dma_bytes = 0;
    bds::CountingSink sink;
    target.trace().replay(sink, [&](std::uint64_t, std::uint64_t n) {
        dma_bytes = n;
    });
    EXPECT_EQ(sink.total, 5u);
    EXPECT_EQ(dma_bytes, 4096u);
}

/** Features + intervals for a stream with two clearly distinct modes. */
struct PickFixture
{
    Matrix features{20, 3};
    std::vector<IntervalRecord> intervals;

    PickFixture()
    {
        for (std::size_t i = 0; i < 20; ++i) {
            double base = i < 12 ? 0.0 : 10.0;
            features(i, 0) = base + 0.01 * static_cast<double>(i);
            features(i, 1) = base;
            features(i, 2) = -base;
            IntervalRecord iv;
            iv.firstOp = i * 100;
            iv.opCount = 100;
            iv.instructions = 40;
            intervals.push_back(iv);
        }
    }
};

TEST(RepresentativePicker, WeightsReconstructTotalOps)
{
    PickFixture fx;
    SamplingOptions opts;
    opts.kMax = 4;
    RepresentativePicker picker(opts);
    PickResult res = picker.pick(fx.features, fx.intervals, 7);

    EXPECT_EQ(res.totalOps, 2000u);
    ASSERT_FALSE(res.reps.empty());
    double reconstructed = 0.0;
    std::uint64_t detail = 0;
    for (const Representative &r : res.reps) {
        reconstructed += r.weight
            * static_cast<double>(fx.intervals[r.interval].opCount);
        detail += fx.intervals[r.interval].opCount;
    }
    EXPECT_NEAR(reconstructed, 2000.0, 1e-6);
    EXPECT_EQ(res.detailOps, detail);
    // Representatives are in stream order and unique.
    for (std::size_t i = 1; i < res.reps.size(); ++i)
        EXPECT_LT(res.reps[i - 1].interval, res.reps[i].interval);
}

TEST(RepresentativePicker, SeparatesObviousClusters)
{
    PickFixture fx;
    SamplingOptions opts;
    opts.kMax = 4;
    RepresentativePicker picker(opts);
    PickResult res = picker.pick(fx.features, fx.intervals, 7);

    // The two bands are far apart; the sweep must find at least two
    // clusters and pick representatives from both.
    EXPECT_GE(res.k, 2u);
    bool low = false, high = false;
    for (const Representative &r : res.reps)
        (r.interval < 12 ? low : high) = true;
    EXPECT_TRUE(low);
    EXPECT_TRUE(high);
}

TEST(RepresentativePicker, DeterministicForSameSeed)
{
    PickFixture fx;
    SamplingOptions opts;
    RepresentativePicker picker(opts);
    PickResult a = picker.pick(fx.features, fx.intervals, 11);
    PickResult b = picker.pick(fx.features, fx.intervals, 11);
    ASSERT_EQ(a.reps.size(), b.reps.size());
    for (std::size_t i = 0; i < a.reps.size(); ++i) {
        EXPECT_EQ(a.reps[i].interval, b.reps[i].interval);
        EXPECT_EQ(a.reps[i].weight, b.reps[i].weight);
    }
    EXPECT_EQ(a.k, b.k);
}

TEST(RepresentativePicker, ConstantFeatureColumnsPickSilently)
{
    // Interval features such as a per-uop count that never varies
    // are constant by construction; picking over them must not warn.
    PickFixture fx;
    for (std::size_t i = 0; i < fx.features.rows(); ++i)
        fx.features(i, 2) = 1.0;
    SamplingOptions opts;
    opts.kMax = 4;
    RepresentativePicker picker(opts);
    ::testing::internal::CaptureStderr();
    const PickResult res = picker.pick(fx.features, fx.intervals, 7);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    EXPECT_FALSE(res.reps.empty());
}

TEST(RepresentativePicker, TinyStreamsGoFullDetail)
{
    Matrix features(1, 3);
    features(0, 0) = 1.0;
    std::vector<IntervalRecord> intervals(1);
    intervals[0].opCount = 42;

    RepresentativePicker picker(SamplingOptions{});
    PickResult res = picker.pick(features, intervals, 3);
    ASSERT_EQ(res.reps.size(), 1u);
    EXPECT_EQ(res.reps[0].interval, 0u);
    EXPECT_EQ(res.reps[0].weight, 1.0);
    EXPECT_EQ(res.detailOps, 42u);
}

TEST(Estimator, ReconstructsWeightedCounterSum)
{
    PickResult picked;
    Representative r0;
    r0.interval = 0;
    r0.weight = 3.0;
    Representative r1;
    r1.interval = 5;
    r1.weight = 1.5;
    picked.reps = {r0, r1};

    PmcCounters c0;
    c0.instructions = 100;
    c0.cycles = 200.0;
    c0.l3Misses = 10;
    PmcCounters c1;
    c1.instructions = 40;
    c1.cycles = 90.0;
    c1.l3Misses = 4;

    bds::SampleEstimate est = bds::estimateMetrics({c0, c1}, picked);
    EXPECT_EQ(est.counters.instructions, 360u); // 3*100 + 1.5*40
    EXPECT_DOUBLE_EQ(est.counters.cycles, 735.0);
    EXPECT_EQ(est.counters.l3Misses, 36u);
}

TEST(Estimator, CompareMetricsIsZeroForIdenticalRuns)
{
    bds::MetricVector v{};
    for (std::size_t i = 0; i < bds::kNumMetrics; ++i)
        v[i] = static_cast<double>(i) * 0.25;
    bds::MetricErrorReport rep = bds::compareMetrics(v, v);
    EXPECT_EQ(rep.meanError, 0.0);
    EXPECT_EQ(rep.maxError, 0.0);
}

TEST(Estimator, CompareMetricsFlagsTheWorstMetric)
{
    bds::MetricVector full{}, sampled{};
    for (std::size_t i = 0; i < bds::kNumMetrics; ++i)
        full[i] = sampled[i] = 1.0;
    sampled[7] = 1.5; // 50% off
    sampled[3] = 1.1; // 10% off
    bds::MetricErrorReport rep = bds::compareMetrics(full, sampled);
    EXPECT_EQ(rep.worstMetric, 7u);
    EXPECT_NEAR(rep.maxError, 0.5, 1e-12);
    EXPECT_NEAR(rep.relError[3], 0.1, 1e-12);
}

TEST(Estimator, CompareMetricsZeroInBothRunsIsZeroError)
{
    // A metric absent from both runs (e.g. no FP at all) must not
    // count as error, even though the relative denominator is eps.
    bds::MetricVector full{}, sampled{};
    full[4] = 0.0;
    sampled[4] = 0.0;
    full[0] = 1.0;
    sampled[0] = 1.0;
    bds::MetricErrorReport rep = bds::compareMetrics(full, sampled);
    EXPECT_EQ(rep.relError[4], 0.0);
    EXPECT_EQ(rep.meanError, 0.0);
    EXPECT_EQ(rep.maxError, 0.0);
}

TEST(Estimator, CompareMetricsEpsGuardsNearZeroFullValues)
{
    // full ~ 0 but sampled clearly nonzero: the eps floor keeps the
    // relative error finite instead of dividing by ~0.
    bds::MetricVector full{}, sampled{};
    full[2] = 0.0;
    sampled[2] = 0.5;
    bds::MetricErrorReport rep = bds::compareMetrics(full, sampled);
    EXPECT_TRUE(std::isfinite(rep.relError[2]));
    EXPECT_GT(rep.relError[2], 0.0);
    EXPECT_DOUBLE_EQ(rep.relError[2], 0.5 / 1e-12);
    EXPECT_EQ(rep.worstMetric, 2u);
}

TEST(Estimator, CompareMetricsWorstMetricTieKeepsFirstIndex)
{
    // Ties update with strict '>': the first metric reaching the
    // maximum error stays the reported worst.
    bds::MetricVector full{}, sampled{};
    for (std::size_t i = 0; i < bds::kNumMetrics; ++i)
        full[i] = sampled[i] = 2.0;
    sampled[5] = 3.0; // 50% off
    sampled[9] = 1.0; // 50% off, same magnitude
    bds::MetricErrorReport rep = bds::compareMetrics(full, sampled);
    EXPECT_EQ(rep.worstMetric, 5u);
    EXPECT_NEAR(rep.maxError, 0.5, 1e-12);
    EXPECT_NEAR(rep.relError[9], 0.5, 1e-12);
}

TEST(SampledReplayer, AccountsEveryOpExactlyOnce)
{
    TraceRecorder rec = makeTrace(400);
    IntervalProfiler prof(100, 8);
    rec.replay(prof);
    prof.finish();

    SamplingOptions opts;
    RepresentativePicker picker(opts);
    PickResult picked =
        picker.pick(prof.featureMatrix(), prof.intervals(), 5);

    bds::NodeConfig cfg = bds::NodeConfig::defaultSim();
    bds::SystemModel sys(cfg);
    SampledReplayer replayer(sys, 100, opts.warmupIntervals);
    SampledReplayStats stats;
    std::vector<PmcCounters> snaps =
        replayer.replay(rec, picked, &stats);

    EXPECT_EQ(snaps.size(), picked.reps.size());
    EXPECT_EQ(stats.totalOps, rec.size());
    EXPECT_EQ(stats.detailOps + stats.warmOps + stats.skippedOps,
              stats.totalOps);
    EXPECT_EQ(stats.detailOps, picked.detailOps);
    // warmupIntervals == 0 warms every interval before the last
    // representative; the ops after it are dropped.
    std::uint64_t tail = 0;
    for (std::size_t i = picked.reps.back().interval + 1;
         i < prof.intervals().size(); ++i)
        tail += prof.intervals()[i].opCount;
    EXPECT_EQ(stats.skippedOps, tail);
    for (std::size_t i = 0; i < snaps.size(); ++i)
        EXPECT_EQ(snaps[i].uops,
                  prof.intervals()[picked.reps[i].interval].opCount);
}

TEST(SampledReplayer, WarmupWindowSkipsDistantIntervals)
{
    TraceRecorder rec = makeTrace(2000);
    IntervalProfiler prof(100, 8);
    rec.replay(prof);
    prof.finish();
    ASSERT_GT(prof.numIntervals(), 10u);

    SamplingOptions opts;
    opts.kMax = 2;
    RepresentativePicker picker(opts);
    PickResult picked =
        picker.pick(prof.featureMatrix(), prof.intervals(), 5);

    bds::NodeConfig cfg = bds::NodeConfig::defaultSim();
    bds::SystemModel sys(cfg);
    SampledReplayer replayer(sys, 100, /*warmup_intervals=*/1);
    SampledReplayStats stats;
    replayer.replay(rec, picked, &stats);
    // With a 1-interval window and few representatives, some
    // intervals must be fast-forwarded.
    EXPECT_GT(stats.skippedOps, 0u);
    EXPECT_EQ(stats.detailOps + stats.warmOps + stats.skippedOps,
              stats.totalOps);
}

TEST(SampledCharacterizer, EstimatesTrackTheFullRun)
{
    bds::WorkloadRunner runner(bds::NodeConfig::defaultSim(),
                               bds::ScaleProfile::quick(), 42);
    bds::WorkloadId id = bds::allWorkloads()[0];
    bds::WorkloadResult full = runner.run(id);

    SamplingOptions opts;
    opts.enabled = true;
    bds::SampledCharacterizer sampler(runner, opts);
    bds::SampledWorkloadResult sampled = sampler.run(id);

    EXPECT_EQ(sampled.id.name(), id.name());
    EXPECT_GT(sampled.numIntervals, 0u);
    EXPECT_GE(sampled.numReps, 1u);
    EXPECT_LT(sampled.stats.detailOps, sampled.stats.totalOps);
    bds::MetricErrorReport rep =
        bds::compareMetrics(full.metrics, sampled.metrics);
    // Loose sanity bound; the bench tracks the tight contract.
    EXPECT_LT(rep.meanError, 0.5);
    for (std::size_t i = 0; i < bds::kNumMetrics; ++i)
        EXPECT_TRUE(std::isfinite(sampled.metrics[i]));
}

TEST(WorkloadCapture, ReplayOnCapturingMachineMatchesTheSampler)
{
    // The DSE contract: one capture replayed on the capturing
    // machine is bitwise the single-machine sampled path.
    bds::WorkloadRunner runner(bds::NodeConfig::defaultSim(),
                               bds::ScaleProfile::quick(), 42);
    bds::WorkloadId id = bds::allWorkloads()[0];
    SamplingOptions opts;
    opts.enabled = true;

    // A default runner is single-node, so run() is exactly the
    // node-0 pipeline (plus wall time, which we don't compare).
    bds::SampledCharacterizer sampler(runner, opts);
    bds::SampledWorkloadResult direct = sampler.run(id);

    const bds::WorkloadCapture cap =
        bds::captureWorkload(runner, opts, id, 0);
    bds::SampledWorkloadResult replayed =
        bds::replayCapture(cap, runner.config(), opts);

    for (std::size_t i = 0; i < bds::kNumMetrics; ++i)
        EXPECT_EQ(direct.metrics[i], replayed.metrics[i]) << i;
    EXPECT_EQ(direct.numIntervals, replayed.numIntervals);
    EXPECT_EQ(direct.numReps, replayed.numReps);
    EXPECT_EQ(direct.stats.totalOps, replayed.stats.totalOps);
    EXPECT_EQ(direct.stats.detailOps, replayed.stats.detailOps);
}

TEST(WorkloadCapture, OneCaptureReplaysAcrossGeometries)
{
    // Same core count, different memory system: the capture is
    // reused, and a 16x-smaller L1 must not estimate identically.
    bds::WorkloadRunner runner(bds::NodeConfig::defaultSim(),
                               bds::ScaleProfile::quick(), 42);
    bds::WorkloadId id = bds::allWorkloads()[0];
    SamplingOptions opts;
    opts.enabled = true;

    const bds::WorkloadCapture cap =
        bds::captureWorkload(runner, opts, id, 0);

    bds::NodeConfig tiny = bds::NodeConfig::defaultSim();
    tiny.l1d.sizeBytes = 2 * 1024;
    tiny.l2.sizeBytes = 16 * 1024;
    bds::SampledWorkloadResult base =
        bds::replayCapture(cap, bds::NodeConfig::defaultSim(), opts);
    bds::SampledWorkloadResult starved =
        bds::replayCapture(cap, tiny, opts);

    // Selection state is shared (the whole point of the seam)...
    EXPECT_EQ(base.numReps, starved.numReps);
    EXPECT_EQ(base.stats.totalOps, starved.stats.totalOps);
    // ...but the geometry-dependent estimates move.
    bool moved = false;
    for (std::size_t i = 0; i < bds::kNumMetrics; ++i)
        if (base.metrics[i] != starved.metrics[i])
            moved = true;
    EXPECT_TRUE(moved);
}

/** `cap` plus a recorded copy of the stream it re-executes. */
bds::WorkloadCapture
withRecordedTrace(const bds::WorkloadCapture &cap)
{
    RecordingTarget rec(cap.numCores);
    cap.runner->execute(cap.id, rec, cap.dataSeed);
    bds::WorkloadCapture traced = cap;
    traced.trace = rec.trace();
    return traced;
}

TEST(WorkloadCapture, LiveProfileEqualsRecordedTraceProfile)
{
    // The capture profiles the engines live; the slow path it
    // replaced recorded a trace and profiled its replay. Same
    // intervals and bit-identical features.
    bds::WorkloadRunner runner(bds::NodeConfig::defaultSim(),
                               bds::ScaleProfile::quick(), 42);
    const bds::WorkloadId id = bds::allWorkloads()[17];
    SamplingOptions opts;
    opts.enabled = true;
    const bds::WorkloadCapture cap =
        bds::captureWorkload(runner, opts, id, 0);
    EXPECT_EQ(cap.runner, &runner);
    EXPECT_EQ(cap.dataSeed, runner.nodeDataSeed(id, 0));
    EXPECT_EQ(cap.trace.size(), 0u); // nothing held

    IntervalProfiler live(opts.intervalUops, opts.bbvDims);
    bds::ProfilingTarget target(live, cap.numCores);
    runner.execute(id, target, cap.dataSeed);
    live.finish();

    RecordingTarget rec(cap.numCores);
    runner.execute(id, rec, cap.dataSeed);
    IntervalProfiler replayed(opts.intervalUops, opts.bbvDims);
    rec.trace().replay(replayed);
    replayed.finish();

    ASSERT_EQ(live.numIntervals(), replayed.numIntervals());
    EXPECT_EQ(cap.numIntervals, live.numIntervals());
    for (std::size_t i = 0; i < live.numIntervals(); ++i) {
        const IntervalRecord &a = live.intervals()[i];
        const IntervalRecord &b = replayed.intervals()[i];
        EXPECT_EQ(a.firstOp, b.firstOp) << i;
        EXPECT_EQ(a.opCount, b.opCount) << i;
        EXPECT_EQ(a.instructions, b.instructions) << i;
    }
    const Matrix fa = live.featureMatrix();
    const Matrix fb = replayed.featureMatrix();
    ASSERT_EQ(fa.rows(), fb.rows());
    ASSERT_EQ(fa.cols(), fb.cols());
    for (std::size_t r = 0; r < fa.rows(); ++r)
        for (std::size_t c = 0; c < fa.cols(); ++c)
            ASSERT_EQ(fa(r, c), fb(r, c)) << r << "," << c;

    std::uint64_t ops = 0;
    for (const IntervalRecord &iv : replayed.intervals())
        ops += iv.opCount;
    EXPECT_EQ(cap.picked.totalOps, ops);
}

TEST(WorkloadCapture, ReExecutedReplayEqualsTraceReplay)
{
    // replayCapture re-executes the engines; on a capture carrying a
    // recorded trace it reads the trace instead. Bitwise-equal
    // metrics and identical op accounting across warm-up windows, a
    // 2-core machine, and a retry attempt's salted seed.
    struct Case
    {
        const char *machine;
        unsigned warmup;
        unsigned attempt;
        std::size_t workload;
    };
    for (const Case &c : {Case{"default", 0, 0, 0},
                          Case{"default", 2, 0, 20},
                          Case{"cores-2", 2, 0, 5},
                          Case{"default", 2, 1, 0}}) {
        SCOPED_TRACE(std::string(c.machine) + " warmup "
                     + std::to_string(c.warmup) + " attempt "
                     + std::to_string(c.attempt));
        bds::WorkloadRunner runner(bds::resolveMachineSpec(c.machine),
                                   bds::ScaleProfile::quick(), 42);
        const bds::WorkloadId id = bds::allWorkloads()[c.workload];
        SamplingOptions opts;
        opts.enabled = true;
        opts.warmupIntervals = c.warmup;

        bds::AttemptContext attempt;
        attempt.attempt = c.attempt;
        bds::AttemptScope scope(attempt);
        const bds::WorkloadCapture cap =
            bds::captureWorkload(runner, opts, id, 0);
        EXPECT_EQ(cap.dataSeed,
                  runner.attemptDataSeed(id, 0, c.attempt));
        if (c.attempt > 0) {
            EXPECT_NE(cap.dataSeed, runner.nodeDataSeed(id, 0));
        }

        const bds::WorkloadCapture traced = withRecordedTrace(cap);
        const bds::SampledWorkloadResult streamed =
            bds::replayCapture(cap, runner.config(), opts);
        const bds::SampledWorkloadResult recorded =
            bds::replayCapture(traced, runner.config(), opts);

        for (std::size_t i = 0; i < bds::kNumMetrics; ++i)
            EXPECT_EQ(streamed.metrics[i], recorded.metrics[i]) << i;
        const SampledReplayStats &a = streamed.stats;
        const SampledReplayStats &b = recorded.stats;
        EXPECT_EQ(a.totalOps, b.totalOps);
        EXPECT_EQ(a.detailOps, b.detailOps);
        EXPECT_EQ(a.warmOps, b.warmOps);
        EXPECT_EQ(a.skippedOps, b.skippedOps);
        EXPECT_EQ(a.ckptRestores, b.ckptRestores);
        EXPECT_EQ(a.ckptWrites, b.ckptWrites);
        EXPECT_EQ(a.totalOps, cap.picked.totalOps);
        if (c.warmup > 0) {
            EXPECT_GT(a.skippedOps, 0u);
        }
    }
}

TEST(WorkloadCapture, ReplayWithoutTraceOrRunnerIsATypedError)
{
    bds::WorkloadRunner runner(bds::NodeConfig::defaultSim(),
                               bds::ScaleProfile::quick(), 42);
    SamplingOptions opts;
    opts.enabled = true;
    bds::WorkloadCapture cap = bds::captureWorkload(
        runner, opts, bds::allWorkloads()[0], 0);
    cap.runner = nullptr;
    try {
        bds::replayCapture(cap, runner.config(), opts);
        FAIL() << "expected Error(InvalidConfig)";
    } catch (const bds::Error &e) {
        EXPECT_EQ(e.code(), bds::ErrorCode::InvalidConfig);
    }
}

TEST(WorkloadCapture, CoreCountMismatchIsATypedError)
{
    // The trace bakes in the record-time work sharding: replaying a
    // 4-core capture on 2 cores would not be a 2-core execution.
    bds::WorkloadRunner runner(bds::NodeConfig::defaultSim(),
                               bds::ScaleProfile::quick(), 42);
    SamplingOptions opts;
    opts.enabled = true;
    const bds::WorkloadCapture cap = bds::captureWorkload(
        runner, opts, bds::allWorkloads()[0], 0);

    bds::NodeConfig twoCore = bds::NodeConfig::defaultSim();
    twoCore.numCores = 2;
    try {
        bds::replayCapture(cap, twoCore, opts);
        FAIL() << "expected Error(InvalidConfig)";
    } catch (const bds::Error &e) {
        EXPECT_EQ(e.code(), bds::ErrorCode::InvalidConfig);
    }
}

} // namespace
