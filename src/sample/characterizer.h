/**
 * @file
 * Sampled characterization: the end-to-end per-workload pipeline —
 * execute + profile, pick, re-execute to warm and replay, estimate —
 * and the 32-workload sweep that produces a sampled 32 x 45 metric
 * matrix.
 *
 * The sweep runs through the same guardedSweep() as
 * WorkloadRunner::runAll: one preallocated slot per workload,
 * per-workload derived seeds, a serial clustering sweep inside each
 * task — so the sampled matrix is bitwise identical for every thread
 * count.
 */

#ifndef BDS_SAMPLE_CHARACTERIZER_H
#define BDS_SAMPLE_CHARACTERIZER_H

#include <vector>

#include "ckpt/context.h"
#include "sample/estimate.h"
#include "sample/options.h"
#include "sample/replay.h"
#include "stats/matrix.h"
#include "workloads/registry.h"

namespace bds {

/** Result of one sampled workload characterization. */
struct SampledWorkloadResult
{
    WorkloadId id;            ///< which workload ran
    PmcCounters counters;     ///< estimated full-run counters
    MetricVector metrics;     ///< estimated Table II metrics
    SampledReplayStats stats; ///< op accounting of the replay
    std::size_t numIntervals = 0; ///< profiled intervals
    std::size_t k = 0;            ///< interval clusters selected
    std::size_t numReps = 0;      ///< representatives simulated
    double wallSeconds = 0.0;     ///< host wall-clock of the run
};

/** Runs workloads through the sampled-simulation path. */
class SampledCharacterizer
{
  public:
    /**
     * @param runner Source of workloads, node geometry, scale, data
     *        seeds and the parallelism knob. Cluster-node fan-out is
     *        honored: each node's shard is sampled independently and
     *        the metrics averaged, as in the full path.
     * @param opts Sampling knobs.
     */
    SampledCharacterizer(const WorkloadRunner &runner,
                         SamplingOptions opts);

    /** Sample one workload (all cluster nodes, metrics averaged). */
    SampledWorkloadResult run(const WorkloadId &id) const;

    /**
     * Sample all 32 workloads through guardedSweep() under the
     * runner's recovery policy (WorkloadRunner::setRecovery): the
     * full path's failure isolation, settle and fault.* counters.
     * @param details Optional per-workload result sink, rows
     *        parallel to the returned matrix.
     * @param report Optional sink for the per-workload RunRecords
     *        and the survivor set.
     * @return survivors x 45 estimated metric matrix, allWorkloads()
     *         order (all 32 rows on a clean run).
     */
    Matrix runAll(std::vector<SampledWorkloadResult> *details
                  = nullptr,
                  SweepReport *report = nullptr) const;

    /** The sampling options in effect. */
    const SamplingOptions &options() const { return opts_; }

    /**
     * Attach a run's checkpoint context (checkpointContextFor): every
     * replay restores representative-entry snapshots when present in
     * the shared cache and writes them when absent. A disabled
     * context (the default) leaves replays warming from zero.
     */
    void setCheckpoints(CheckpointContext ctx) { ckpt_ = std::move(ctx); }

    /** The checkpoint context in effect (disabled by default). */
    const CheckpointContext &checkpoints() const { return ckpt_; }

  private:
    /** Sample one node's shard of a workload. */
    SampledWorkloadResult runOnNode(const WorkloadId &id,
                                    unsigned node) const;

    const WorkloadRunner &runner_;
    SamplingOptions opts_;
    CheckpointContext ckpt_;
};

} // namespace bds

#endif // BDS_SAMPLE_CHARACTERIZER_H
