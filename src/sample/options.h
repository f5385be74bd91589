/**
 * @file
 * Knobs for the sampled-simulation subsystem.
 *
 * Kept dependency-free (plain integers only) so PipelineOptions can
 * embed a SamplingOptions without bds_core linking bds_sample: the
 * struct travels with the options, the machinery that interprets it
 * lives in src/sample.
 */

#ifndef BDS_SAMPLE_OPTIONS_H
#define BDS_SAMPLE_OPTIONS_H

#include <cstddef>
#include <cstdint>

namespace bds {

/** Configuration of the sampled characterization path. */
struct SamplingOptions
{
    /** Master switch: off reproduces the full detailed runs. */
    bool enabled = false;

    /**
     * Interval size in micro-ops. Intervals are the unit of
     * clustering and replay; smaller intervals give the picker more
     * resolution but cost more clustering work per workload. The
     * default is calibrated so the quick-scale 32-workload sweep
     * keeps every paper finding while simulating under a fifth of
     * the micro-ops in detail (see docs/SAMPLING.md).
     */
    std::uint64_t intervalUops = 50000;

    /**
     * Dimensions of the hashed branch-target basic-block vector.
     * Branch IPs hash into this many buckets, SimPoint-style; the
     * op-class and privilege-mode mixes ride along as extra columns.
     */
    std::size_t bbvDims = 32;

    /** Smallest interval-cluster count tried in the BIC sweep. */
    std::size_t kMin = 1;

    /** Largest interval-cluster count tried (clamped to intervals). */
    std::size_t kMax = 6;

    /**
     * Functional-warming window: how many intervals before each
     * representative are replayed counter-frozen. 0 warms every
     * interval before the last representative in the freeze mode, so
     * microarchitectural state at each representative is exactly the
     * full run's (most accurate, least wall-clock saving). W > 0
     * fast-forwards intervals outside the window entirely (their DMA
     * events still apply). Either way the intervals after the last
     * representative are never replayed: nothing there is observed.
     */
    unsigned warmupIntervals = 0;

    /**
     * Base seed for the per-workload interval K-means sweeps. Each
     * workload derives its own stream from (seed, algorithm, stack,
     * node), so sampled sweeps are order- and thread-independent.
     */
    std::uint64_t seed = 7;
};

} // namespace bds

#endif // BDS_SAMPLE_OPTIONS_H
