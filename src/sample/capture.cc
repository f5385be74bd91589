#include "sample/capture.h"

#include <cmath>
#include <limits>

#include "fault/recover.h"
#include "obs/trace.h"
#include "sample/interval.h"
#include "uarch/system.h"

namespace bds {

namespace {

/**
 * Per-(workload, node) seed for the interval clustering sweep —
 * derived from fixed identities only, so sampled selection never
 * depends on execution order or thread count.
 */
std::uint64_t
pickerSeed(const SamplingOptions &opts, const WorkloadId &id,
           unsigned node)
{
    return opts.seed + 1000 * static_cast<std::uint64_t>(id.alg)
        + (id.stack == StackKind::Spark ? 500000ULL : 0ULL)
        + 7919ULL * static_cast<std::uint64_t>(node);
}

} // namespace

WorkloadCapture
captureWorkload(const WorkloadRunner &runner,
                const SamplingOptions &opts, const WorkloadId &id,
                unsigned node)
{
    if (opts.intervalUops == 0)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "sampling interval must be at least one uop");
    if (opts.bbvDims == 0)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "sampling BBV needs at least one bucket");

    WorkloadCapture cap;
    cap.id = id;
    cap.node = node;
    cap.numCores = runner.config().numCores;
    cap.runner = &runner;
    // Attempt 0 executes over the plain node seed (bitwise equal to
    // the pre-recovery path); retries execute over the same
    // attempt-salted seed the full path would use.
    const AttemptContext *ctx = currentAttempt();
    cap.dataSeed =
        runner.attemptDataSeed(id, node, ctx ? ctx->attempt : 0);

    // 1-2. Execute and profile: drive the stack engine straight into
    //      the profiler, which splits the stream into intervals with
    //      BBV/mix features — op generation at profiling cost.
    IntervalProfiler profiler(opts.intervalUops, opts.bbvDims);
    {
        TraceSpan stage("sample.profile");
        ProfilingTarget target(profiler, cap.numCores);
        runner.execute(id, target, cap.dataSeed);
        profiler.finish();
    }
    cap.numIntervals = profiler.numIntervals();

    // 3. Pick: cluster intervals, choose weighted representatives.
    RepresentativePicker picker(opts);
    {
        TraceSpan stage("sample.pick");
        cap.picked = picker.pick(profiler.featureMatrix(),
                                 profiler.intervals(),
                                 pickerSeed(opts, id, node));
    }
    return cap;
}

SampledWorkloadResult
replayCapture(const WorkloadCapture &cap, const NodeConfig &machine,
              const SamplingOptions &opts,
              const CheckpointContext *ckpt)
{
    // The stream bakes in the stack engines' work sharding across
    // cores; replaying it on a machine with a different core count
    // would attribute ops to cores that machine does not have (or leave
    // cores idle that its scheduler would have used). Geometry may
    // vary freely; the core count may not.
    if (machine.numCores != cap.numCores)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "capture of " << cap.id.name() << " was executed on "
                      << cap.numCores
                      << " cores and cannot replay on "
                      << machine.numCores
                      << " (re-capture for this machine)");

    // 4. Replay: functional warming + detailed representatives.
    SystemModel sys(machine);
    SampledReplayer replayer(sys, opts.intervalUops,
                             opts.warmupIntervals);
    // Checkpoints are keyed to the op stream; a retry attempt executes
    // over an attempt-salted seed, so only attempt 0 may touch them.
    const AttemptContext *attempt = currentAttempt();
    if (ckpt && ckpt->enabled()
        && (!attempt || attempt->attempt == 0))
        replayer.setCheckpoints(
            ckpt->cache, ckpt->keyFor(cap.id.name(), cap.node));
    SampledReplayStats stats;
    std::vector<PmcCounters> snaps;
    {
        TraceSpan stage("sample.replay");
        if (cap.trace.size() > 0) {
            snaps = replayer.replay(cap.trace, cap.picked, &stats);
        } else {
            // Re-execute: the same (workload, data seed, core count)
            // reproduces the profiled ops and DMA bit for bit.
            if (!cap.runner)
                BDS_RAISE(ErrorCode::InvalidConfig,
                          "capture of "
                              << cap.id.name()
                              << " carries neither a trace nor a "
                                 "runner");
            snaps = replayer.replay(
                [&](ExecTarget &target) {
                    cap.runner->execute(cap.id, target, cap.dataSeed);
                },
                cap.picked, &stats);
        }
    }
    Tracer::global().counter("sample.total_ops", stats.totalOps);
    Tracer::global().counter("sample.detail_ops", stats.detailOps);

    // 5. Estimate: weighted counter reconstruction.
    SampleEstimate est;
    {
        TraceSpan stage("sample.estimate");
        est = estimateMetrics(snaps, cap.picked);
    }

    SampledWorkloadResult res;
    res.id = cap.id;
    res.counters = est.counters;
    res.metrics = est.metrics;
    res.stats = stats;
    res.numIntervals = cap.numIntervals;
    res.k = cap.picked.k;
    res.numReps = cap.picked.reps.size();
    if (FaultInjector::global().shouldCorrupt(cap.id.name()))
        res.metrics[0] = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t i = 0; i < kNumMetrics; ++i)
        if (!std::isfinite(res.metrics[i]))
            BDS_RAISE(ErrorCode::DegenerateData,
                      "sampled workload " << cap.id.name()
                          << " estimated a non-finite metric");
    return res;
}

} // namespace bds
