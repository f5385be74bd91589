/**
 * @file
 * SharedStore: the fleet-safe on-disk store both ServeEngine's
 * result store and the checkpoint cache sit on (docs/STORAGE.md).
 *
 * One SharedStore is one directory of immutable entry files plus
 * three kinds of coordination state:
 *
 *  - lease files (`<entry>.lease`, src/store/lease.h) give
 *    cross-process single-flight: at most one process computes a
 *    given entry while everyone else waits, with deterministic
 *    takeover of dead or wedged holders;
 *  - an LRU index (`store.index`, src/store/index.h) orders entries
 *    for eviction under the byte budget; it is rebuilt from a
 *    directory scan whenever it is corrupt or missing;
 *  - a down flag: every filesystem failure (ENOSPC, failed rename,
 *    unwritable directory) flips the store into *store-down* mode
 *    where publishes become counted no-ops and coordination is
 *    skipped — callers keep computing correct results, they just
 *    stop caching. A cheap probe (create/write/unlink a scratch
 *    file, at most once per healProbeMs) brings the store back the
 *    moment the disk recovers.
 *
 * Durability: publishes write `<entry>.tmp.<pid>`, fsync, then
 * rename — a reader never sees a torn entry and a crash never leaves
 * one behind. Eviction unlinks whole entry files (each unlink is
 * atomic), so a crash mid-evict can only leave the store *over*
 * budget — repaired by the next enforceBudget(), which rescans the
 * directory as the source of truth — never missing a valid entry.
 *
 * Deterministic testing: the FaultInjector sites `store.write`,
 * `store.rename`, `store.lease` and `store.enospc` (BDS_FAULT_IO)
 * fail the corresponding step on demand; every degradation path in
 * this file is reachable from a test and from CI.
 *
 * All traffic is counted in the process-wide counter registry
 * (obs/metrics.h, the `store.*` counters), which the trace and the
 * daemon's `stats` verb and `--stats-json` read.
 */

#ifndef BDS_STORE_SHARED_H
#define BDS_STORE_SHARED_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "store/index.h"
#include "store/lease.h"

namespace bds {

/** Configuration of one SharedStore. */
struct SharedStoreOptions
{
    /** Store directory (created on open). Must be non-empty. */
    std::string dir;

    /**
     * Entry filename suffix (".res", ".ckpt"): only files ending in
     * it are entries — everything else in the directory (index,
     * leases, temps, probes) is coordination state and exempt from
     * budget accounting and eviction.
     */
    std::string suffix;

    /** Byte budget across entry files; 0 = unbounded. */
    std::uint64_t maxBytes = 0;

    /** Lease protocol timing (tests shrink these). */
    LeaseOptions lease;

    /**
     * Minimum interval between store-down heal probes, in
     * milliseconds; 0 probes on every operation (tests).
     */
    std::uint64_t healProbeMs = 250;
};

/** Outcome of SharedStore::singleFlight(). */
struct FlightTicket
{
    /**
     * Held when this process is the leader and must compute +
     * publish. Null when the entry appeared while waiting
     * (entryAppeared), or when the store is down / lease machinery
     * failed — then the caller computes uncoordinated.
     */
    std::unique_ptr<Lease> lease;

    /** True when the wait ended because the entry file appeared. */
    bool entryAppeared = false;
};

/**
 * A shared on-disk byte store: leases, budget, degradation. Thread-
 * safe; safe to point any number of processes at one directory.
 */
class SharedStore
{
  public:
    /**
     * Open the store, creating the directory if needed. An empty dir
     * is Error(InvalidConfig); an *uncreatable* one is not an error —
     * the store opens in down mode (callers compute uncached) and
     * heals if the path becomes writable. Opening also reaps orphan
     * temp/lease files of dead processes, reconciles or rebuilds the
     * index, and re-enforces the byte budget (repairing a previous
     * killed-mid-evict run).
     */
    explicit SharedStore(SharedStoreOptions opts);

    /** The store directory. */
    const std::string &dir() const { return opts_.dir; }

    /** The configured byte budget (0 = unbounded). */
    std::uint64_t maxBytes() const { return opts_.maxBytes; }

    /** True while degraded (no caching, no coordination). */
    bool down() const;

    /** Absolute path of entry `name` (name includes the suffix). */
    std::string entryPath(const std::string &name) const;

    /**
     * Read entry `name` into *bytes. False when absent, unreadable,
     * or the store is down (a cache can always miss). A hit bumps
     * the file mtime so recency survives process boundaries.
     */
    bool read(const std::string &name, std::string *bytes);

    /**
     * Atomically publish entry `name` (tmp + fsync + rename), then
     * enforce the byte budget. Never throws: any failure — real or
     * injected — flips the store down and returns false. Callers
     * treat false as "computed but not cached".
     */
    bool publish(const std::string &name, const std::string &bytes);

    /**
     * Enter the single-flight protocol for entry `name`. Returns a
     * held lease (this process computes), entryAppeared (another
     * process published while we waited — re-read), or neither (store
     * down / lease failure — compute uncoordinated).
     */
    FlightTicket singleFlight(const std::string &name);

    /**
     * Bring entry bytes back under maxBytes, evicting LRU entries.
     * Rescans the directory as the source of truth (repairs stale
     * index state from crashes or other daemons). No-op when
     * unbounded or down.
     */
    void enforceBudget();

  private:
    bool maybeHeal();
    void enterDown(const std::string &what);
    std::vector<ScannedEntry> scanEntries() const;
    void reapOrphans() const;

    SharedStoreOptions opts_;
    std::string indexPath_;

    mutable std::mutex mu_;
    bool down_ = false;
    std::chrono::steady_clock::time_point lastProbe_{};
    StoreIndex index_;
};

} // namespace bds

#endif // BDS_STORE_SHARED_H
