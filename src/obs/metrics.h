/**
 * @file
 * The process-wide counter registry: every runtime counter of the
 * program (checkpoint, capture-record, shared-store, serve, sampling
 * and fault-recovery traffic) is defined once, in BDS_COUNTERS below,
 * and every sink reads it from here:
 *
 *  - the trace: counters::add() emits the `C` event under the
 *    counter's trace name (`store.publish`), exactly as a direct
 *    Tracer::counter() call would;
 *  - bds_serve's `stats` verb: one `key=value` field per counter, in
 *    registry order, under its stats key (`store_publishes`);
 *  - bds_serve's `--stats-json`: the same values, each group nested
 *    under its trace-name prefix (counters::jsonField()).
 *
 * Values are relaxed atomics: counting never orders, locks or
 * allocates, and never changes what the program computes.
 * docs/OBSERVABILITY.md tabulates every counter with its meaning.
 */

#ifndef BDS_OBS_METRICS_H
#define BDS_OBS_METRICS_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <utility>

namespace bds {

/**
 * X(id, trace name, stats key), in sink order. The first 21 rows keep
 * the `stats` verb's original field order; append new counters at the
 * end. A stats key that begins with its trace-name prefix and '_'
 * nests in `--stats-json` under that prefix; the serve keys do not,
 * so they stay at the top level.
 */
#define BDS_COUNTERS(X)                                                       \
    X(ServeRequests, "serve.requests", "requests")                            \
    X(ServeHits, "serve.hits", "hits")                                        \
    X(ServeMisses, "serve.misses", "misses")                                  \
    X(ServeErrors, "serve.errors", "errors")                                  \
    X(ServeBypass, "serve.bypass", "bypassed")                                \
    X(ServeShed, "serve.shed", "shed")                                        \
    X(CkptHits, "ckpt.hits", "ckpt_hits")                                     \
    X(CkptMisses, "ckpt.misses", "ckpt_misses")                               \
    X(CkptWrites, "ckpt.writes", "ckpt_writes")                               \
    X(CkptFallbacks, "ckpt.fallbacks", "ckpt_fallbacks")                      \
    X(CkptBytesRead, "ckpt.bytes_read", "ckpt_bytes_read")                    \
    X(CkptBytesWritten, "ckpt.bytes_written", "ckpt_bytes_written")           \
    X(StorePublish, "store.publish", "store_publishes")                       \
    X(StorePublishSkipped, "store.publish_skipped", "store_publish_skipped")  \
    X(StoreEvict, "store.evict", "store_evicted")                             \
    X(StoreEvictBytes, "store.evict_bytes", "store_evicted_bytes")            \
    X(StoreDown, "store.down", "store_downs")                                 \
    X(StoreHeal, "store.heal", "store_heals")                                 \
    X(StoreLeaseAcquire, "store.lease_acquire", "store_lease_acquires")       \
    X(StoreLeaseWait, "store.lease_wait", "store_lease_waits")                \
    X(StoreLeaseTakeover, "store.lease_takeover", "store_lease_takeovers")    \
    X(CaptureHits, "capture.hits", "capture_hits")                            \
    X(CaptureMisses, "capture.misses", "capture_misses")                      \
    X(CaptureWrites, "capture.writes", "capture_writes")                      \
    X(CaptureFallbacks, "capture.fallbacks", "capture_fallbacks")             \
    X(SampleTotalOps, "sample.total_ops", "sample_total_ops")                 \
    X(SampleDetailOps, "sample.detail_ops", "sample_detail_ops")              \
    X(FaultRetries, "fault.retries", "fault_retries")                         \
    X(FaultRetriedOk, "fault.retried_ok", "fault_retried_ok")                 \
    X(FaultTimeout, "fault.timeout", "fault_timeouts")                        \
    X(FaultQuarantined, "fault.quarantined", "fault_quarantined")

/** One registered counter. */
enum class Counter : std::size_t
{
#define BDS_COUNTER_ID(id, trace, key) id,
    BDS_COUNTERS(BDS_COUNTER_ID)
#undef BDS_COUNTER_ID
};

/** A counter's two spellings. */
struct CounterDef
{
    Counter id;
    const char *traceName; ///< trace `C` event name: "store.publish"
    const char *statsKey;  ///< `stats` verb key: "store_publishes"
};

/** Every counter, indexed by Counter. */
inline constexpr CounterDef kCounters[] = {
#define BDS_COUNTER_DEF(id, trace, key) {Counter::id, trace, key},
    BDS_COUNTERS(BDS_COUNTER_DEF)
#undef BDS_COUNTER_DEF
};

inline constexpr std::size_t kNumCounters = std::size(kCounters);

namespace counters {

/** Add `n` to `c` and emit its trace event; n == 0 is a no-op. */
void add(Counter c, std::uint64_t n = 1);

/** The value of `c` since process start (or the last reset()). */
std::uint64_t value(Counter c);

/** Zero every counter (tests, bench passes). */
void reset();

/**
 * Where `--stats-json` puts `c`: {group, key}. The group is the
 * trace-name prefix when the stats key starts with it and '_' (the
 * key then drops that prefix); otherwise the group is empty and the
 * counter sits at the top level under its stats key.
 */
std::pair<std::string_view, std::string_view> jsonField(const CounterDef &c);

/** Call fn(def, value) for every counter, in registry order. */
template <typename Fn>
void
forEach(Fn &&fn)
{
    for (const CounterDef &def : kCounters)
        fn(def, value(def.id));
}

} // namespace counters

} // namespace bds

#endif // BDS_OBS_METRICS_H
