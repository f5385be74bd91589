/**
 * @file
 * The capture/replay seam of the sampled path.
 *
 * The first three stages of sampled characterization — execute the
 * op stream, profile it into intervals, pick weighted
 * representatives — depend only on the workload, its data seed, the
 * sampling knobs and the core count. They never touch cache or
 * predictor state. The last two stages — warm + detailed replay,
 * counter estimation — are where the machine geometry matters.
 * Splitting the pipeline at that boundary lets a design-space-
 * exploration sweep (bench/dse_sweep.cc) capture each workload once
 * and replay the one capture against every same-core-count geometry,
 * exactly the trace-driven methodology of the paper's tech-report
 * sequel.
 *
 * No trace is held. The op stream is a pure function of (workload,
 * data seed, core count): WorkloadRunner::execute builds a fresh
 * address space on every call. So the capture keeps only the runner,
 * the data seed and the selection, and every replay re-executes the
 * stack engines into the replayer, reproducing the profiled ops and
 * DMA bit for bit. The runner must outlive the capture.
 *
 * With checkpoints on, the selection is cached too: a BDSCAPTURE
 * record per (workload, node) in the checkpoint store holds the
 * picks, so a warm capture runs no stack engine and no picker, and
 * the representatives' checkpoint entries carry the detail slices a
 * warm replay feeds instead of re-executing (docs/CHECKPOINT.md).
 *
 * SampledCharacterizer::runOnNode() is implemented on this seam, so
 * the single-machine path and the sweep path cannot drift apart: a
 * capture replayed on the capturing runner's own machine is bitwise
 * identical to the monolithic pipeline it replaced.
 */

#ifndef BDS_SAMPLE_CAPTURE_H
#define BDS_SAMPLE_CAPTURE_H

#include <string>
#include <string_view>

#include "ckpt/context.h"
#include "sample/characterizer.h"
#include "sample/options.h"
#include "sample/picker.h"
#include "trace/recorder.h"
#include "workloads/registry.h"

namespace bds {

/**
 * One workload's machine-independent sampling state: how to
 * reproduce the op stream plus the interval selection made over it.
 * Valid for replay on any geometry with the same core count (the
 * stack engines shard work across cores, so the stream itself bakes
 * the core count in — replaying a 4-core stream on a 2-core machine
 * would not be that machine's execution).
 */
struct WorkloadCapture
{
    WorkloadId id{};          ///< which workload was captured
    unsigned node = 0;        ///< cluster-node shard index
    unsigned numCores = 0;    ///< core count the stream was executed on
    /** Re-executes the stream on replay; must outlive the capture. */
    const WorkloadRunner *runner = nullptr;
    std::uint64_t dataSeed = 0; ///< data seed the stream executed with
    /**
     * Optional recorded op/DMA stream. When non-empty, replay reads
     * it instead of re-executing; captureWorkload() leaves it empty.
     */
    TraceRecorder trace;
    PickResult picked;        ///< representative intervals + weights
    std::size_t numIntervals = 0; ///< profiled intervals
};

/**
 * Execute, profile and pick for one (workload, node) shard: stages
 * 1-3 of the sampled pipeline. The stack engines stream straight
 * into the interval profiler; no trace is recorded. Seeds derive
 * from (opts.seed, id, node) and the current retry attempt only, so
 * captures are deterministic at any thread count. The capture
 * refers to `runner`, which must outlive it. Raises
 * Error(InvalidConfig) on degenerate sampling knobs.
 *
 * `ckpt` (optional) attaches the run's checkpoint context: a valid
 * capture record stands in for all three stages, and an absent or
 * bad one (counted as a capture miss or fallback) is recaptured and
 * written. Ignored on retry attempts, like the checkpoints.
 */
WorkloadCapture captureWorkload(const WorkloadRunner &runner,
                                const SamplingOptions &opts,
                                const WorkloadId &id, unsigned node,
                                const CheckpointContext *ckpt
                                = nullptr);

/**
 * The BDSCAPTURE record of `cap` under `key` (docs/STORAGE.md §6):
 * the key fields, the data seed, the interval count and the
 * PickResult — each weight as its exact IEEE-754 bits — then a
 * checksum over everything before it.
 */
std::string writeCaptureRecord(const WorkloadCapture &cap,
                               const CheckpointKey &key);

/**
 * Parse a capture record into cap.picked and cap.numIntervals;
 * `what` names the source in diagnostics. Error(Io) on a structural
 * violation, a checksum mismatch or picks no picker produces
 * (representatives not strictly ascending, an interval out of range,
 * a non-finite weight, more detail than total ops);
 * Error(InvalidConfig) when the key fields or the data seed differ
 * from `key` and cap.dataSeed. Declared counts are never allocated.
 */
void readCaptureRecord(std::string_view bytes, const std::string &what,
                       const CheckpointKey &key, WorkloadCapture &cap);

/**
 * Warm, replay and estimate a capture on `machine`: stages 4-5 of
 * the sampled pipeline, including the fault layer's metric-
 * corruption injection point and the non-finite estimate check.
 * Each call re-executes the stack engines with the capture's data
 * seed (or reads `cap.trace` when the capture carries one). Raises
 * Error(InvalidConfig) when `machine` has a different core count
 * than the capture was executed on, or when the stream must run and
 * the capture has neither a trace nor a runner.
 *
 * `ckpt` (optional) attaches the run's checkpoint context: when
 * every representative's entry verifies and carries a slice, the
 * replay restores them and re-executes nothing; otherwise it
 * simulates from zero, restoring nothing, and writes every entry
 * with its slice (docs/CHECKPOINT.md). Ignored on retry attempts —
 * attempt-salted data seeds change the op stream, so a retry's
 * intervals must never alias attempt 0's checkpoints.
 */
SampledWorkloadResult replayCapture(const WorkloadCapture &cap,
                                    const NodeConfig &machine,
                                    const SamplingOptions &opts,
                                    const CheckpointContext *ckpt
                                    = nullptr);

} // namespace bds

#endif // BDS_SAMPLE_CAPTURE_H
