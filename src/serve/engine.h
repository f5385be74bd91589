/**
 * @file
 * ServeEngine: the transport-independent request handler of the
 * characterization service.
 *
 * One engine owns a ResultStore and a base RunConfig (the daemon's
 * resolved environment: worker threads, sampling detail knobs, the
 * fault policy and any armed injection spec). handle() resolves a
 * RequestRecord into a full RunConfig, content-addresses it with
 * runConfigHash(), and answers from the store — scheduling a
 * WorkloadRunner sweep under the fault layer only on a miss.
 *
 * handle() is thread-safe and never throws: every failure — an
 * invalid request, an injected fault, a quarantined sweep that
 * fail-fast rethrew — becomes an error response with the typed
 * ErrorCode, so one poisoned request can never take the daemon down
 * (the per-request quarantine contract). The engine holds no global
 * mutable state: concurrent requests share only the store (locked,
 * single-flight) and the process-wide observers (Tracer,
 * FaultInjector), which are armed once per process by the daemon's
 * Session, never per request.
 *
 * Overload shedding: a bounded admission queue sits ahead of the
 * in-flight gate. At most serve.maxQueue computes may be waiting for
 * a slot; a request beyond that is shed immediately with a typed
 * Overloaded error (`err overloaded` on the wire) instead of
 * queueing unboundedly — the daemon stays responsive under a
 * thundering herd, and clients get an honest retry signal. Cache
 * hits are never queued, never shed.
 *
 * A store hit costs its verified disk read and little else: the
 * request's cell hash is memoized per (scale, seed, machine,
 * sampled), and a projected hit slices a per-cell projection basis
 * (the entry's parsed rows, column index and formatted cells) built
 * once per daemon, answering only while the entry's bytes equal the
 * bytes the basis was built from. Both maps are bounded
 * (kMemoCapacity); docs/SERVING.md "What a hit costs".
 *
 * Trace counters: serve.requests, serve.hits, serve.misses,
 * serve.errors, serve.bypass, serve.shed; spans serve.request /
 * serve.compute.
 */

#ifndef BDS_SERVE_ENGINE_H
#define BDS_SERVE_ENGINE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/checkpoint.h"
#include "fault/error.h"
#include "fault/status.h"
#include "obs/runconfig.h"
#include "serve/memo.h"
#include "serve/request.h"
#include "serve/store.h"
#include "stats/matrix.h"

namespace bds {

class Session;
struct ProjectionBasis;

/** What the engine answers one request with. */
struct ServeResponse
{
    /** True when a payload was produced. */
    bool ok = false;

    /** True when the payload came from the result store. */
    bool hit = false;

    /** The content address of the resolved configuration. */
    std::string hashHex;

    /** CSV payload (projected to the requested rows/columns). */
    std::string payload;

    /**
     * Workloads this request's sweep quarantined (empty on clean
     * runs and cache hits). The payload still carries the survivors;
     * the cell is not cached.
     */
    std::vector<std::string> quarantined;

    /** Failure classification when !ok. */
    ErrorCode code = ErrorCode::None;

    /** Failure message when !ok. */
    std::string message;

    /** Wall-clock spent answering, in seconds. */
    double seconds = 0.0;
};

/** Monotonic counters the engine keeps next to the trace counters. */
struct ServeStats
{
    std::uint64_t requests = 0; ///< requests handled
    std::uint64_t hits = 0;     ///< answered from the store
    std::uint64_t misses = 0;   ///< computed (and usually cached)
    std::uint64_t errors = 0;   ///< answered with an error response
    std::uint64_t bypassed = 0; ///< computed with the store bypassed
    std::uint64_t shed = 0;     ///< shed by the admission queue

    /**
     * Shared-store traffic of this process (publishes, evictions,
     * down/heal transitions, lease activity): populated from the
     * process-wide storeStats() when the snapshot is taken.
     */
    StoreStats store;

    /**
     * Interval checkpoint traffic of this process's sampled replays
     * (src/ckpt): populated from the process-wide ckptStats() when
     * the snapshot is taken, so the `stats` verb and --stats-json
     * show how much re-characterization the checkpoint cache saved.
     */
    CkptStats ckpt;
};

/**
 * The one cell compute, shared by ServeEngine and the batch tools
 * (bench/bench_common.h): characterize the full 32-workload suite
 * under `cfg` — sampled when cfg.sampling.enabled, restoring and
 * writing the checkpoints cfg.ckpt names — and render the store
 * entry. A sweep that quarantined workloads comes back !cacheable
 * with the survivors' rows. `report`, when given, receives the
 * sweep's per-workload outcome.
 */
ComputedResult characterizeCell(const RunConfig &cfg,
                                SweepReport *report = nullptr);

/**
 * The store entry of a characterized matrix: the key and canonical
 * text of `cfg`, the CSV writeMetricsCsv() renders for `names` x
 * `metrics`, and a mini manifest naming cfg.tool and the compute
 * wall-clock. dse_sweep publishes its per-preset cells through it.
 */
ResultEntry makeResultEntry(const RunConfig &cfg,
                            const std::vector<std::string> &names,
                            const Matrix &metrics, double seconds);

/** The transport-independent characterization service. */
class ServeEngine
{
  public:
    /**
     * @param base The daemon's resolved configuration. base.serve
     *        supplies the cache directory, in-flight bound and
     *        bypass switch.
     * @param session Optional: per-request sweep failures are
     *        recorded here so the daemon manifest carries them.
     */
    explicit ServeEngine(RunConfig base, Session *session = nullptr);

    /** Answer one request. Thread-safe; never throws. */
    ServeResponse handle(const RequestRecord &req);

    /** Counter snapshot. */
    ServeStats stats() const;

    /** The store (tests poke entries directly). */
    ResultStore &store() { return store_; }

    /**
     * Resolve a request into the full RunConfig its cell is keyed
     * by: the daemon's base config with the request's scale, seed
     * and sampled switch applied. Exposed so replay drivers and
     * tests can compute the hash a request will be served under.
     */
    RunConfig requestConfig(const RequestRecord &req) const;

    /**
     * The content address a request is served under:
     * runConfigHashHex(requestConfig(req)), memoized per (scale,
     * seed, machine, sampled). The masks and the bypass flag never
     * change it. Raises like requestConfig() on an invalid record.
     */
    std::string cellHash(const RequestRecord &req) const;

    /** Most projection bases, and most memoized hashes, held. */
    static constexpr std::size_t kMemoCapacity = 32;

    /** Projection bases held now (at most kMemoCapacity). */
    std::size_t cachedBases() const { return bases_.size(); }

    /** Memoized cell hashes held now (at most kMemoCapacity). */
    std::size_t cachedHashes() const { return hashes_.size(); }

  private:
    /**
     * characterizeCell() under a serve.compute span,
     * recording a quarantined sweep on the daemon's session.
     * Quarantine info travels in the returned ComputedResult so
     * single-flight followers see it too.
     */
    ComputedResult computeCell(const RunConfig &cfg);

    /**
     * Project an entry's CSV onto the request's rows/columns: the
     * bytes writeMetricsCsv() would emit for the selection, sliced
     * from the entry's cached projection basis.
     */
    std::string projectPayload(const ResultEntry &entry,
                               const RequestRecord &req) const;

    RunConfig base_;
    ResultStore store_;
    Session *session_;
    unsigned maxInFlight_;

    mutable std::mutex mutex_; ///< guards stats_ and session_ use
    ServeStats stats_;

    /** Projection bases by entry hash. */
    mutable BoundedMemo<std::string,
                        std::shared_ptr<const ProjectionBasis>>
        bases_{kMemoCapacity};

    /** Cell hashes by (scale, seed, machine, sampled). */
    mutable BoundedMemo<std::tuple<std::uint32_t, std::uint64_t,
                                   std::uint32_t, bool>,
                        std::string>
        hashes_{kMemoCapacity};

    /** Counting semaphore bounding concurrent sweeps. */
    struct Gate;
    std::shared_ptr<Gate> gate_;
};

} // namespace bds

#endif // BDS_SERVE_ENGINE_H
