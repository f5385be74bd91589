#include "sample/replay.h"

#include <algorithm>
#include <map>
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
    Jump,   ///< checkpoint-covered: no ops, no DMA
    Warm,   ///< counter-frozen functional warming
    Detail, ///< live counters, snapshot at the end
};

/** Checkpoint traffic of one replay: the probed payloads + cache. */
struct CkptPlan
{
    const CheckpointCache *cache = nullptr;
    const CheckpointKey *key = nullptr;

    /** State payloads restored at detail-interval entry, by interval. */
    std::map<std::size_t, std::string> payloads;
};

/**
 * Routes a stream through the system according to the per-interval
 * plan, toggling the freeze mode and snapshotting counters at
 * interval boundaries. An ExecTarget, so the stack engines can drive
 * it directly; reports the system's core count for their sharding.
 */
class PlanSink : public ExecTarget
{
  public:
    PlanSink(SystemModel &sys, std::uint64_t interval_uops,
             const std::vector<IntervalMode> &plan,
             const std::vector<int> &rep_of,
             std::vector<PmcCounters> &snaps, SampledReplayStats &stats,
             CkptPlan *ckpt)
        : sys_(sys), intervalUops_(interval_uops), plan_(plan),
          repOf_(rep_of), snaps_(snaps), stats_(stats), ckpt_(ckpt),
          tailMode_(ckpt ? IntervalMode::Jump : IntervalMode::Warm)
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
          case IntervalMode::Jump:
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

    /**
     * DMA events reach the node in every mode except Jump: a jumped
     * range ends at a restored checkpoint whose snapshot already
     * embodies the range's DMA effects (or at the end of the stream,
     * after which nothing is observed).
     */
    void dmaFill(std::uint64_t addr, std::uint64_t bytes) override
    {
        if (mode_ != IntervalMode::Jump)
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
        mode_ = interval < plan_.size() ? plan_[interval] : tailMode_;
        if (mode_ != IntervalMode::Detail) {
            sys_.setCounterFreeze(true);
            return;
        }
        // Detail entry is the checkpoint point: unfreeze and zero the
        // counters first, so the saved (and restored) state is
        // exactly what detail replay starts from.
        sys_.setCounterFreeze(false);
        sys_.resetCounters();
        if (!ckpt_)
            return;
        auto it = ckpt_->payloads.find(interval);
        if (it != ckpt_->payloads.end()) {
            // The probe already validated container checksum, version
            // and machine text; equal machine text implies every
            // geometry guard below matches, so a loadState failure
            // here would be a program bug, not an input — let the
            // typed error propagate.
            StateSource src(it->second,
                            ckpt_->cache->path(*ckpt_->key, interval));
            sys_.loadState(src);
            src.finish();
            ++stats_.ckptRestores;
        } else {
            // Snapshot now; the entry is written when the interval
            // ends, with the slice of events the model received.
            StateSink sink;
            sys_.saveState(sink);
            entryState_ = sink.take();
            slice_.clear();
            sys_.attachRecorder(&slice_);
        }
    }

    void leaveInterval()
    {
        if (mode_ != IntervalMode::Detail)
            return;
        if (current_ < repOf_.size() && repOf_[current_] >= 0)
            snaps_[static_cast<std::size_t>(repOf_[current_])] =
                sys_.aggregateCounters();
        if (entryState_.empty())
            return;
        sys_.attachRecorder(nullptr);
        try {
            ckpt_->cache->store(*ckpt_->key, current_, entryState_,
                                slice_);
            ++stats_.ckptWrites;
        } catch (const Error &e) {
            // A full disk must degrade the cache, not the run.
            warn(std::string("checkpoint: cannot store interval "
                             "snapshot: ")
                 + e.what());
        }
        entryState_.clear();
        slice_.clear();
    }

    SystemModel &sys_;
    std::uint64_t intervalUops_;
    const std::vector<IntervalMode> &plan_;
    const std::vector<int> &repOf_;
    std::vector<PmcCounters> &snaps_;
    SampledReplayStats &stats_;
    CkptPlan *ckpt_;
    IntervalMode tailMode_;

    std::uint64_t left_ = 0; ///< uops left in the current interval
    std::size_t current_ = 0;
    IntervalMode mode_ = IntervalMode::Warm;

    /** Entry state of the detail interval being recorded, if any. */
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

bool
SampledReplayer::replaySlices(const PickResult &picked,
                              std::vector<PmcCounters> &snaps,
                              SampledReplayStats &stats, bool &touched)
{
    std::uint64_t detail = 0, bytes = 0;
    for (std::size_t r = 0; r < picked.reps.size(); ++r) {
        const std::size_t interval = picked.reps[r].interval;
        const std::string what = ckptCache_->path(ckptKey_, interval);
        CheckpointEntry entry;
        TraceRecorder slice;
        try {
            if (!ckptCache_->read(ckptKey_, interval, &entry)
                || entry.ops.empty())
                return false;
            slice = TraceRecorder::decode(entry.ops, sys_.numCores(),
                                          what);
        } catch (const Error &) {
            // The re-execution path reads the entry again, and
            // reports and counts what is wrong with it.
            return false;
        }
        touched = true;
        sys_.setCounterFreeze(false);
        sys_.resetCounters();
        StateSource src(entry.state, what);
        sys_.loadState(src);
        src.finish();
        std::uint64_t dma = 0;
        slice.replay(sys_, [&](std::uint64_t addr, std::uint64_t n) {
            sys_.dmaFill(addr, n);
            ++dma;
        });
        snaps[r] = sys_.aggregateCounters();
        detail += slice.size() - dma;
        bytes += entry.state.size() + entry.ops.size();
    }
    counters::add(Counter::CkptHits, picked.reps.size());
    counters::add(Counter::CkptBytesRead, bytes);
    stats.totalOps = picked.totalOps;
    stats.detailOps = detail;
    stats.skippedOps = picked.totalOps - detail;
    stats.ckptRestores = picked.reps.size();
    return true;
}

std::vector<PmcCounters>
SampledReplayer::replay(const StreamSource &drive,
                        const PickResult &picked,
                        SampledReplayStats *stats)
{
    std::vector<PmcCounters> snaps(picked.reps.size());
    SampledReplayStats local;
    bool touched = false;
    if (ckptCache_ && replaySlices(picked, snaps, local, touched)) {
        if (stats)
            *stats = local;
        return snaps;
    }
    // Re-execute the stream. When the slice path got partway, start
    // from a fresh model: an entry it restored may be gone (evicted
    // by another process) by the time the probe below reads it, and
    // warming must then begin from zero state.
    std::optional<SystemModel> fresh;
    SystemModel &sys = touched ? fresh.emplace(sys_.config()) : sys_;

    // Build the per-interval plan. Representatives run in detail;
    // with a bounded warmup window, only the W intervals before each
    // representative are warmed and the rest are skipped. W == 0
    // warms everything.
    std::size_t n = static_cast<std::size_t>(
        (picked.totalOps + intervalUops_ - 1) / intervalUops_);
    for (const Representative &r : picked.reps)
        n = std::max(n, r.interval + 1);
    std::vector<IntervalMode> plan(
        n, warmupIntervals_ == 0 ? IntervalMode::Warm
                                 : IntervalMode::Skip);
    std::vector<int> rep_of(n, -1);
    for (std::size_t r = 0; r < picked.reps.size(); ++r) {
        std::size_t i = picked.reps[r].interval;
        plan[i] = IntervalMode::Detail;
        rep_of[i] = static_cast<int>(r);
    }
    if (warmupIntervals_ > 0) {
        for (const Representative &r : picked.reps) {
            std::size_t lo = r.interval > warmupIntervals_
                ? r.interval - warmupIntervals_ : 0;
            for (std::size_t i = lo; i < r.interval; ++i)
                if (plan[i] == IntervalMode::Skip)
                    plan[i] = IntervalMode::Warm;
        }
    }

    // Probe the checkpoint cache up front — never mid-stream, so a
    // corrupt entry can still fall back to warming from zero. Every
    // interval strictly before a restorable representative is
    // covered by its snapshot and jumps; a representative without a
    // valid checkpoint keeps its warm-up plan intact and writes one,
    // with its slice, when its interval ends. Reps arrive in
    // ascending interval order
    // (picker contract), so the cursor walks the stream once.
    CkptPlan ckpt;
    if (ckptCache_) {
        ckpt.cache = ckptCache_.get();
        ckpt.key = &ckptKey_;
        std::size_t cursor = 0;
        for (const Representative &r : picked.reps) {
            CheckpointEntry entry;
            bool have = false;
            try {
                have = ckptCache_->read(ckptKey_, r.interval, &entry);
                if (!have) {
                    counters::add(Counter::CkptMisses);
                } else {
                    // A slice that does not decode makes the entry
                    // as corrupt as a bad checksum does.
                    TraceRecorder::decode(
                        entry.ops, sys.numCores(),
                        ckptCache_->path(ckptKey_, r.interval));
                    counters::add(Counter::CkptHits);
                    counters::add(Counter::CkptBytesRead,
                                  entry.state.size() + entry.ops.size());
                }
            } catch (const std::exception &e) {
                // Corrupt/truncated/foreign entry: report, warm from
                // zero, rewrite when its interval ends.
                warn(std::string("checkpoint: ") + e.what());
                counters::add(Counter::CkptFallbacks);
                have = false;
            }
            if (have) {
                ckpt.payloads[r.interval] = std::move(entry.state);
                for (std::size_t i = cursor; i < r.interval; ++i)
                    plan[i] = IntervalMode::Jump;
            }
            cursor = r.interval + 1;
        }
        // Nothing is observed after the last representative's
        // snapshot, so the tail never needs warming either.
        for (std::size_t i = cursor; i < n; ++i)
            plan[i] = IntervalMode::Jump;
    }

    PlanSink sink(sys, intervalUops_, plan, rep_of, snaps, local,
                  ckptCache_ ? &ckpt : nullptr);
    drive(sink);
    sink.finish();

    if (stats)
        *stats = local;
    return snaps;
}

} // namespace bds
