#include "sample/replay.h"

#include <optional>

#include "ckpt/state.h"
#include "common/log.h"
#include "fault/error.h"
#include "obs/metrics.h"

namespace bds {

namespace {

/** What to do with the ops of one interval. */
enum class IntervalMode : std::uint8_t
{
    Skip,   ///< fast-forward (DMA only)
    Warm,   ///< counter-frozen functional warming
    Detail, ///< live counters, snapshot at the end
    Tail,   ///< after the last representative: no ops, no DMA
};

/**
 * The per-interval plan, a pure function of the picks and the warmup
 * window: representatives run in detail; with a bounded window W only
 * the W intervals before each representative are warmed and the rest
 * are skipped, while W == 0 warms all the others. The plan ends with
 * the last representative: nothing after it is observed, so the sink
 * drops the tail's ops and DMA (IntervalMode::Tail).
 */
std::vector<IntervalMode>
replayPlan(const PickResult &picked, unsigned warmup_intervals)
{
    if (picked.reps.empty())
        return {};
    std::vector<IntervalMode> plan(
        picked.reps.back().interval + 1,
        warmup_intervals == 0 ? IntervalMode::Warm : IntervalMode::Skip);
    for (const Representative &r : picked.reps) {
        plan[r.interval] = IntervalMode::Detail;
        if (warmup_intervals == 0)
            continue;
        const std::size_t lo = r.interval > warmup_intervals
            ? r.interval - warmup_intervals : 0;
        for (std::size_t i = lo; i < r.interval; ++i)
            if (plan[i] == IntervalMode::Skip)
                plan[i] = IntervalMode::Warm;
    }
    return plan;
}

/**
 * Routes a stream through the system according to the per-interval
 * plan, toggling the freeze mode and snapshotting counters at
 * interval boundaries. An ExecTarget, so the stack engines can drive
 * it directly; reports the system's core count for their sharding.
 * With a checkpoint cache it also writes each representative's entry:
 * the state at detail entry plus the slice of events that follow.
 */
class PlanSink : public ExecTarget
{
  public:
    /**
     * `verified` leading representatives already have valid entries
     * (the slice path read, restored and replayed them this pass), so
     * only the entries after them are written.
     */
    PlanSink(SystemModel &sys, std::uint64_t interval_uops,
             const std::vector<IntervalMode> &plan,
             std::vector<PmcCounters> &snaps, SampledReplayStats &stats,
             const CheckpointCache *cache, const CheckpointKey &key,
             std::size_t verified)
        : sys_(sys), intervalUops_(interval_uops), plan_(plan),
          snaps_(snaps), stats_(stats), cache_(cache), key_(key),
          verified_(verified)
    {
        enterInterval(0);
        left_ = intervalUops_;
    }

    void consume(unsigned core, const MicroOp &op) override
    {
        // Countdown to the interval boundary; ops arrive one at a
        // time, so the interval index only ever advances by one.
        if (left_ == 0) {
            leaveInterval();
            enterInterval(current_ + 1);
            left_ = intervalUops_;
        }
        --left_;
        ++stats_.totalOps;
        switch (mode_) {
          case IntervalMode::Skip:
          case IntervalMode::Tail:
            ++stats_.skippedOps;
            return;
          case IntervalMode::Warm:
            ++stats_.warmOps;
            break;
          case IntervalMode::Detail:
            ++stats_.detailOps;
            break;
        }
        sys_.consume(core, op);
    }

    unsigned numCores() const override { return sys_.numCores(); }

    /** DMA events reach the node in every mode but the tail's. */
    void dmaFill(std::uint64_t addr, std::uint64_t bytes) override
    {
        if (mode_ != IntervalMode::Tail)
            sys_.dmaFill(addr, bytes);
    }

    /** Close the final interval after the stream ends. */
    void finish()
    {
        leaveInterval();
        sys_.setCounterFreeze(false);
    }

  private:
    void enterInterval(std::size_t interval)
    {
        current_ = interval;
        mode_ = interval < plan_.size() ? plan_[interval]
                                        : IntervalMode::Tail;
        if (mode_ != IntervalMode::Detail) {
            sys_.setCounterFreeze(true);
            return;
        }
        // Detail entry is the checkpoint point: unfreeze and zero the
        // counters first, so the saved (and restored) state is
        // exactly what detail replay starts from.
        sys_.setCounterFreeze(false);
        sys_.resetCounters();
        if (!cache_ || nextRep_ < verified_)
            return;
        // Snapshot now; the entry is written when the interval ends,
        // with the slice of events the model received.
        StateSink sink;
        sys_.saveState(sink);
        entryState_ = sink.take();
        slice_.clear();
        sys_.attachRecorder(&slice_);
    }

    void leaveInterval()
    {
        if (mode_ != IntervalMode::Detail)
            return;
        // Representatives ascend (picker contract), so detail
        // intervals end in picked.reps order.
        const std::size_t rep = nextRep_++;
        snaps_[rep] = sys_.aggregateCounters();
        if (!cache_ || rep < verified_)
            return;
        sys_.attachRecorder(nullptr);
        // Never throws: a full disk degrades the cache, not the run.
        cache_->store(key_, current_, entryState_, slice_);
        ++stats_.ckptWrites;
        entryState_.clear();
        slice_.clear();
    }

    SystemModel &sys_;
    std::uint64_t intervalUops_;
    const std::vector<IntervalMode> &plan_;
    std::vector<PmcCounters> &snaps_;
    SampledReplayStats &stats_;
    const CheckpointCache *cache_;
    const CheckpointKey &key_;
    const std::size_t verified_; ///< leading entries left as they are

    std::uint64_t left_ = 0; ///< uops left in the current interval
    std::size_t current_ = 0;
    IntervalMode mode_ = IntervalMode::Warm;
    std::size_t nextRep_ = 0; ///< snaps_ slot of the next detail end

    /** Entry state of the detail interval being recorded. */
    std::string entryState_;
    /** Events of that interval so far: its detail slice. */
    TraceRecorder slice_;
};

} // namespace

SampledReplayer::SampledReplayer(SystemModel &sys,
                                 std::uint64_t interval_uops,
                                 unsigned warmup_intervals)
    : sys_(sys), intervalUops_(interval_uops),
      warmupIntervals_(warmup_intervals)
{
    if (intervalUops_ == 0)
        BDS_FATAL("interval size must be at least one uop");
}

void
SampledReplayer::setCheckpoints(
    std::shared_ptr<const CheckpointCache> cache, CheckpointKey key)
{
    ckptCache_ = std::move(cache);
    ckptKey_ = std::move(key);
}

std::vector<PmcCounters>
SampledReplayer::replay(const TraceRecorder &trace,
                        const PickResult &picked,
                        SampledReplayStats *stats)
{
    return replay([&](ExecTarget &target) {
        trace.replay(target,
                     [&](std::uint64_t addr, std::uint64_t bytes) {
                         target.dmaFill(addr, bytes);
                     });
    }, picked, stats);
}

std::size_t
SampledReplayer::replaySlices(const PickResult &picked,
                              std::vector<PmcCounters> &snaps,
                              SampledReplayStats &stats, bool &touched)
{
    const std::size_t reps = picked.reps.size();
    std::uint64_t detail = 0, bytes = 0;
    for (std::size_t r = 0; r < reps; ++r) {
        const std::size_t interval = picked.reps[r].interval;
        const std::string what = ckptCache_->path(ckptKey_, interval);
        try {
            CheckpointEntry entry;
            if (!ckptCache_->read(ckptKey_, interval, &entry)
                || entry.ops.empty()) {
                // Absent or slice-less: nothing of this pass restores.
                counters::add(Counter::CkptMisses, reps);
                return r;
            }
            touched = true;
            sys_.setCounterFreeze(false);
            sys_.resetCounters();
            StateSource src(entry.state, what);
            sys_.loadState(src);
            src.finish();
            // The slice decodes straight into the model.
            std::uint64_t dma = 0;
            const std::size_t events = TraceRecorder::replayEncoded(
                entry.ops, sys_.numCores(), what, sys_,
                [&](std::uint64_t addr, std::uint64_t n) {
                    sys_.dmaFill(addr, n);
                    ++dma;
                });
            detail += events - dma;
            bytes += entry.state.size() + entry.ops.size();
        } catch (const Error &e) {
            // Corrupt, truncated, foreign or stale — in the container,
            // the state or the slice: reported once, and every other
            // representative of the pass is a miss.
            warn(std::string("checkpoint: ") + e.what());
            counters::add(Counter::CkptFallbacks);
            counters::add(Counter::CkptMisses, reps - 1);
            return r;
        }
        snaps[r] = sys_.aggregateCounters();
    }
    counters::add(Counter::CkptHits, reps);
    counters::add(Counter::CkptBytesRead, bytes);
    stats.totalOps = picked.totalOps;
    stats.detailOps = detail;
    stats.skippedOps = picked.totalOps - detail;
    stats.ckptRestores = reps;
    return reps;
}

std::vector<PmcCounters>
SampledReplayer::replay(const StreamSource &drive,
                        const PickResult &picked,
                        SampledReplayStats *stats)
{
    std::vector<PmcCounters> snaps(picked.reps.size());
    SampledReplayStats local;
    bool touched = false;
    std::size_t verified = 0;
    if (ckptCache_) {
        verified = replaySlices(picked, snaps, local, touched);
        if (verified == picked.reps.size()) {
            if (stats)
                *stats = local;
            return snaps;
        }
    }
    // Simulate from zero: on a fresh model when the slice path got
    // partway, under the plan a run without checkpoints uses, writing
    // the entries after the ones the slice path verified.
    std::optional<SystemModel> fresh;
    SystemModel &sys = touched ? fresh.emplace(sys_.config()) : sys_;
    const std::vector<IntervalMode> plan =
        replayPlan(picked, warmupIntervals_);
    PlanSink sink(sys, intervalUops_, plan, snaps, local,
                  ckptCache_.get(), ckptKey_, verified);
    drive(sink);
    sink.finish();

    if (stats)
        *stats = local;
    return snaps;
}

} // namespace bds
