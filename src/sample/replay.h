/**
 * @file
 * Warmup-aware sampled replay, with interval checkpoint/restore.
 *
 * A SampledReplayer drives an op stream into a SystemModel,
 * simulating only the chosen representative intervals with live
 * counters. The stream comes either from re-executing the stack
 * engines (the sampled path: nothing is held in memory) or from a
 * recorded TraceRecorder; both feed the same per-interval plan.
 * Everything else is either functionally warmed — replayed in the
 * SystemModel's counter-freeze mode, so caches, TLBs, the branch
 * predictor and coherence advance while PmcCounters stand still — or
 * fast-forwarded entirely when outside the warmup window (DMA events
 * still apply, keeping the memory image in sync). Nothing after the
 * last representative is observed, so its ops and DMA are dropped.
 *
 * With a checkpoint cache attached (setCheckpoints), a replay takes
 * one of two routes. When every representative's entry verifies and
 * carries its detail slice, the stream is never called: each entry is
 * restored in turn and the model is fed its slice (replaySlices, the
 * one place that reads or restores a checkpoint). Otherwise the
 * stream is re-executed on a fresh model under the same plan a replay
 * without checkpoints uses, and each representative's entry is
 * written: the full SystemModel state at detail entry (after the
 * unfreeze + counter reset, so it is exactly what detail replay
 * starts from) plus the slice of every op and DMA fill the model
 * received until the interval ended. Restored replays are
 * bitwise-identical to warming from zero (test-pinned). An absent or
 * slice-less entry is a miss; a corrupt, truncated or foreign one is
 * a typed error the replayer turns into one counted, warned fallback;
 * either way that pass simulates from zero and rewrites every entry.
 */

#ifndef BDS_SAMPLE_REPLAY_H
#define BDS_SAMPLE_REPLAY_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ckpt/checkpoint.h"
#include "sample/picker.h"
#include "trace/recorder.h"
#include "uarch/pmc.h"
#include "uarch/system.h"

namespace bds {

/** Op accounting of one sampled replay. */
struct SampledReplayStats
{
    std::uint64_t totalOps = 0;   ///< ops in the stream
    std::uint64_t detailOps = 0;  ///< simulated with live counters
    std::uint64_t warmOps = 0;    ///< replayed counter-frozen
    std::uint64_t skippedOps = 0; ///< fast-forwarded entirely
    std::uint64_t ckptRestores = 0; ///< representatives restored
    std::uint64_t ckptWrites = 0;   ///< checkpoints written

    /** Field-wise sum (nodes of one workload, workloads of a pass). */
    SampledReplayStats &operator+=(const SampledReplayStats &o)
    {
        totalOps += o.totalOps;
        detailOps += o.detailOps;
        warmOps += o.warmOps;
        skippedOps += o.skippedOps;
        ckptRestores += o.ckptRestores;
        ckptWrites += o.ckptWrites;
        return *this;
    }
};

/** Replays a stream, detailing only the representative intervals. */
class SampledReplayer
{
  public:
    /**
     * One execution of the op stream into `target`: every op through
     * consume(), every device DMA through dmaFill(). Calling it must
     * produce the same stream the intervals were profiled on.
     */
    using StreamSource = std::function<void(ExecTarget &target)>;

    /**
     * @param sys Target node (fresh, same geometry as the recording).
     * @param interval_uops Interval size used by the profiler.
     * @param warmup_intervals Warming window before each
     *        representative; 0 warms every interval before the last
     *        representative. Intervals after it are never replayed.
     */
    SampledReplayer(SystemModel &sys, std::uint64_t interval_uops,
                    unsigned warmup_intervals);

    /**
     * Attach a checkpoint cache. `key` identifies this replay's
     * stream (config hash + machine + workload + node); the interval
     * index is appended per representative. When every
     * representative's entry is valid and carries a slice, replay()
     * restores and replays them one at a time and never calls the
     * stream. Otherwise the stream is re-executed on a fresh model,
     * exactly as without a cache, and every representative's entry is
     * written, with its slice, for the next run. Each replay counts
     * every representative once: all ckpt.hits on the first route;
     * on the second, one ckpt.fallbacks for a bad entry the slice
     * route stopped at and a ckpt.misses for every other one.
     */
    void setCheckpoints(std::shared_ptr<const CheckpointCache> cache,
                        CheckpointKey key);

    /**
     * Drive the stream and capture per-representative counters. The
     * model's state afterwards is unspecified.
     * @param drive Executes the stream once (profiler's interval
     *        origin) into the replayer's plan target; not called
     *        when the checkpoints' slices cover every representative.
     * @param picked Representatives to simulate in detail.
     * @param stats Optional op-accounting sink.
     * @return One aggregated PmcCounters per representative, in
     *         picked.reps order.
     */
    std::vector<PmcCounters> replay(const StreamSource &drive,
                                    const PickResult &picked,
                                    SampledReplayStats *stats = nullptr);

    /** replay() over a recorded stream, DMA events included. */
    std::vector<PmcCounters> replay(const TraceRecorder &trace,
                                    const PickResult &picked,
                                    SampledReplayStats *stats = nullptr);

  private:
    /**
     * The stream-free path: restore each representative's entry and
     * feed the model its slice, reading one entry at a time. Counts
     * the hits and fills `stats` only when every entry served; false
     * as soon as one is absent, sliceless or bad (counting the pass's
     * misses and fallback), with `touched` telling whether the model
     * was already changed.
     */
    bool replaySlices(const PickResult &picked,
                      std::vector<PmcCounters> &snaps,
                      SampledReplayStats &stats, bool &touched);

    SystemModel &sys_;
    std::uint64_t intervalUops_;
    unsigned warmupIntervals_;
    std::shared_ptr<const CheckpointCache> ckptCache_;
    CheckpointKey ckptKey_;
};

} // namespace bds

#endif // BDS_SAMPLE_REPLAY_H
