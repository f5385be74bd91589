/**
 * @file
 * Interval profiling: the paper's feature-extraction step applied
 * recursively to execution intervals.
 *
 * An IntervalProfiler consumes a micro-op stream (a live stack
 * execution, or a TraceRecorder replay) and splits it into fixed-size
 * intervals, collecting per interval the cheap structural features
 * SimPoint-style sampling clusters on: a hashed branch-target
 * basic-block vector plus the op-class and privilege-mode mixes. No
 * microarchitectural state is simulated, so a profiling pass costs a
 * small constant per op.
 */

#ifndef BDS_SAMPLE_INTERVAL_H
#define BDS_SAMPLE_INTERVAL_H

#include <cstdint>
#include <vector>

#include "stats/matrix.h"
#include "trace/microop.h"
#include "trace/recorder.h"

namespace bds {

/** Position and size of one profiled interval in the op stream. */
struct IntervalRecord
{
    std::uint64_t firstOp = 0;      ///< stream index of the first op
    std::uint64_t opCount = 0;      ///< micro-ops in the interval
    std::uint64_t instructions = 0; ///< macro-instructions
};

/**
 * Recording-only execution target: implements the ExecTarget seam so
 * a stack engine can drive it exactly like a SystemModel, but every
 * op and DMA event lands in a TraceRecorder instead of a detailed
 * simulation. For tools that want a stream on disk or in memory; the
 * sampled path itself streams the engines into the profiler and the
 * replayer and never records (sample/capture.h).
 */
class RecordingTarget : public ExecTarget
{
  public:
    /** @param num_cores Core count reported to the engines. */
    explicit RecordingTarget(unsigned num_cores) : cores_(num_cores) {}

    void consume(unsigned core, const MicroOp &op) override
    {
        trace_.consume(core, op);
    }

    unsigned numCores() const override { return cores_; }

    void dmaFill(std::uint64_t addr, std::uint64_t bytes) override
    {
        trace_.recordDma(addr, bytes);
    }

    /** The captured trace. */
    const TraceRecorder &trace() const { return trace_; }

  private:
    unsigned cores_;
    TraceRecorder trace_;
};

/** Splits an op stream into intervals with feature vectors. */
class IntervalProfiler : public OpSink
{
  public:
    /**
     * @param interval_uops Interval size in micro-ops (>= 1).
     * @param bbv_dims Hashed basic-block-vector buckets (>= 1).
     */
    IntervalProfiler(std::uint64_t interval_uops, std::size_t bbv_dims);

    void consume(unsigned core, const MicroOp &op) override;

    /**
     * Close the trailing partial interval, if any. Call once after
     * the whole stream has been consumed; idempotent.
     */
    void finish();

    /** Number of closed intervals (call finish() first). */
    std::size_t numIntervals() const { return intervals_.size(); }

    /** Interval positions/sizes, in stream order. */
    const std::vector<IntervalRecord> &intervals() const
    {
        return intervals_;
    }

    /**
     * Feature matrix: one row per interval, columns = bbv_dims BBV
     * buckets, then 6 op-class shares, then 2 mode shares. All
     * features are per-uop rates, so interval length cancels out.
     */
    Matrix featureMatrix() const;

  private:
    /** Close the current interval and reset the accumulators. */
    void closeInterval();

    std::uint64_t intervalUops_;
    std::size_t bbvDims_;

    std::uint64_t streamPos_ = 0;  ///< ops consumed in total
    std::uint64_t opCount_ = 0;    ///< ops in the open interval
    std::uint64_t instructions_ = 0;
    std::vector<double> bbv_;      ///< per-bucket instruction counts
    std::vector<double> classMix_; ///< per-OpClass uop counts (6)
    std::vector<double> modeMix_;  ///< per-Mode uop counts (2)

    /** Per-core instructions since the core's last branch. */
    std::vector<std::uint64_t> sinceBranch_;

    std::vector<IntervalRecord> intervals_;
    std::vector<std::vector<double>> features_;
};

/**
 * Live-profiling execution target: a stack engine drives it like a
 * SystemModel and every op goes straight into an IntervalProfiler,
 * so a workload is profiled without recording its stream. DMA is
 * dropped: the profiler's features are op-stream features only.
 */
class ProfilingTarget : public ExecTarget
{
  public:
    /**
     * @param profiler Consumer of the op stream (must outlive this).
     * @param num_cores Core count reported to the engines.
     */
    ProfilingTarget(IntervalProfiler &profiler, unsigned num_cores)
        : profiler_(profiler), cores_(num_cores)
    {
    }

    void consume(unsigned core, const MicroOp &op) override;

    unsigned numCores() const override { return cores_; }

    void dmaFill(std::uint64_t, std::uint64_t) override {}

  private:
    IntervalProfiler &profiler_;
    unsigned cores_;
};

} // namespace bds

#endif // BDS_SAMPLE_INTERVAL_H
