#include "sample/capture.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <limits>

#include "common/log.h"
#include "fault/recover.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sample/interval.h"
#include "serve/confighash.h"
#include "store/record.h"
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

constexpr unsigned kCaptureVersion = 1;

/** Bytes of the "sum <16 hex>\nEND\n" trailer a record ends with. */
constexpr std::size_t kCaptureTrailerBytes = 4 + 16 + 1 + 4;

/** Split the next space-delimited token off the front of `line`. */
std::string_view
token(std::string_view &line)
{
    const std::size_t sp = line.find(' ');
    const std::string_view tok = line.substr(0, sp);
    line.remove_prefix(sp == std::string_view::npos ? line.size()
                                                    : sp + 1);
    return tok;
}

/** Parse exactly 16 hex digits, as toHex64() writes them. */
bool
parseHex64(std::string_view v, std::uint64_t *n)
{
    return v.size() == 16
        && std::from_chars(v.data(), v.data() + v.size(), *n, 16).ptr
        == v.data() + v.size();
}

} // namespace

std::string
writeCaptureRecord(const WorkloadCapture &cap, const CheckpointKey &key)
{
    std::string out;
    appendField(out, "BDSCAPTURE", kCaptureVersion);
    appendField(out, "hash", key.configHash);
    appendField(out, "slug", key.machineSlug);
    appendSized(out, "workload", key.workload);
    appendField(out, "node", key.node);
    appendField(out, "seed", cap.dataSeed);
    appendField(out, "intervals", cap.numIntervals);
    appendField(out, "k", cap.picked.k);
    appendField(out, "total_ops", cap.picked.totalOps);
    appendField(out, "detail_ops", cap.picked.detailOps);
    appendField(out, "reps", cap.picked.reps.size());
    for (const Representative &r : cap.picked.reps)
        appendField(out, "rep",
                    std::to_string(r.interval) + ' '
                        + std::to_string(r.cluster) + ' '
                        + std::to_string(r.clusterSize) + ' '
                        + toHex64(std::bit_cast<std::uint64_t>(
                            r.weight)));
    appendField(out, "sum", toHex64(stateChecksum(out)));
    out += "END\n";
    return out;
}

void
readCaptureRecord(std::string_view bytes, const std::string &what,
                  const CheckpointKey &key, WorkloadCapture &cap)
{
    RecordCursor in(bytes, what);
    in.header("BDSCAPTURE", kCaptureVersion);
    const std::string_view hash = in.field("hash");
    const std::string_view slug = in.field("slug");
    const std::string_view workload = in.sized("workload");
    const std::uint64_t node = in.number("node");
    const std::uint64_t seed = in.number("seed");
    cap.numIntervals = in.number("intervals");
    PickResult &p = cap.picked;
    p = PickResult();
    p.k = in.number("k");
    p.totalOps = in.number("total_ops");
    p.detailOps = in.number("detail_ops");
    const std::uint64_t reps = in.number("reps");
    auto bad = [&](const char *why) {
        BDS_RAISE(ErrorCode::Io, what << ": " << why);
    };
    // One line per representative; the declared count is only ever
    // walked, so an inflated one runs out of lines, not memory.
    for (std::uint64_t i = 0; i < reps; ++i) {
        std::string_view line = in.field("rep");
        std::uint64_t interval = 0, cluster = 0, size = 0, bits = 0;
        if (!parseDecimal(token(line), &interval)
            || !parseDecimal(token(line), &cluster)
            || !parseDecimal(token(line), &size)
            || !parseHex64(line, &bits))
            bad("malformed rep line");
        Representative r;
        r.interval = interval;
        r.cluster = cluster;
        r.clusterSize = size;
        r.weight = std::bit_cast<double>(bits);
        if (r.interval >= cap.numIntervals)
            bad("representative interval out of range");
        if (!p.reps.empty() && r.interval <= p.reps.back().interval)
            bad("representatives not strictly ascending");
        if (!std::isfinite(r.weight))
            bad("non-finite representative weight");
        p.reps.push_back(r);
    }
    const std::string_view sum = in.field("sum");
    in.end();
    if (sum.size() != 16
        || toHex64(stateChecksum(bytes.substr(
               0, bytes.size() - kCaptureTrailerBytes)))
            != sum)
        bad("checksum mismatch (corrupt capture record)");
    if (p.reps.empty() || p.detailOps > p.totalOps)
        bad("picks are inconsistent");
    if (hash != key.configHash || slug != key.machineSlug
        || workload != key.workload || node != key.node)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  what << ": capture record is keyed to " << hash << "/"
                       << slug << "/" << workload << "/n" << node);
    if (seed != cap.dataSeed)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  what << ": capture record was taken over data seed "
                       << seed << ", expected " << cap.dataSeed);
}

WorkloadCapture
captureWorkload(const WorkloadRunner &runner,
                const SamplingOptions &opts, const WorkloadId &id,
                unsigned node, const CheckpointContext *ckpt)
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
    const unsigned attempt = ctx ? ctx->attempt : 0;
    cap.dataSeed = runner.attemptDataSeed(id, node, attempt);

    // The picks are a function of the stream and the sampling knobs,
    // both under the checkpoint key. Attempt 0 only: a retry's
    // attempt-salted seed executes a different stream.
    const bool cached = ckpt && ckpt->enabled() && attempt == 0;
    CheckpointKey key;
    if (cached) {
        key = ckpt->keyFor(id.name(), node);
        try {
            std::string bytes;
            if (ckpt->cache->loadCapture(key, &bytes)) {
                readCaptureRecord(bytes, ckpt->cache->capturePath(key),
                                  key, cap);
                counters::add(Counter::CaptureHits);
                return cap;
            }
            counters::add(Counter::CaptureMisses);
        } catch (const Error &e) {
            warn(std::string("capture record: ") + e.what());
            counters::add(Counter::CaptureFallbacks);
        }
    }

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
    if (cached)
        ckpt->cache->storeCapture(key, writeCaptureRecord(cap, key));
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
            // reproduces the profiled ops and DMA bit for bit. Never
            // called when the checkpoints' slices cover every
            // representative, so such a replay needs no runner.
            snaps = replayer.replay(
                [&](ExecTarget &target) {
                    if (!cap.runner)
                        BDS_RAISE(ErrorCode::InvalidConfig,
                                  "capture of "
                                      << cap.id.name()
                                      << " carries neither a trace "
                                         "nor a runner");
                    cap.runner->execute(cap.id, target, cap.dataSeed);
                },
                cap.picked, &stats);
        }
    }
    counters::add(Counter::SampleTotalOps, stats.totalOps);
    counters::add(Counter::SampleDetailOps, stats.detailOps);

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
