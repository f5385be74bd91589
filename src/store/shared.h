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
 *  - entry mtimes are the one recency record: a publish and every
 *    hit stamp the entry with the realtime clock, and eviction under
 *    the byte budget unlinks the oldest stamps first, so every
 *    process sharing the directory orders victims the same way;
 *  - a down flag: every filesystem failure (ENOSPC, failed rename,
 *    unwritable directory) flips the store into *store-down* mode
 *    where publishes become counted no-ops and coordination is
 *    skipped — callers keep computing correct results, they just
 *    stop caching. A cheap probe (create/write/unlink a scratch
 *    file, at most once per healProbeMs) brings the store back the
 *    moment the disk recovers.
 *
 * Durability: publishes write `<entry>.tmp.<pid>`, stamp, fsync, then
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

#include "store/lease.h"
#include "store/record.h"

namespace bds {

/** Configuration of one SharedStore. */
struct SharedStoreOptions
{
    /** Store directory (created on open). Must be non-empty. */
    std::string dir;

    /**
     * Entry filename suffix (".result", ".ckpt"): only files ending
     * in it are entries — everything else in the directory (leases,
     * temps, probes) is coordination state and exempt from budget
     * accounting and eviction.
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
     * temp/lease files of dead processes and re-enforces the byte
     * budget (repairing a previous killed-mid-evict run).
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
     * Read entry `name` into *bytes (a std::string or a FileBytes).
     * False when absent, unreadable, or the store is down (a cache
     * can always miss). A hit stamps the file mtime, which every
     * process's eviction reads.
     */
    template <typename Bytes>
    bool read(const std::string &name, Bytes *bytes)
    {
        if (!maybeHeal())
            return false;
        const std::string path = entryPath(name);
        if (!readFile(path, bytes))
            return false;
        touch(path);
        return true;
    }

    /**
     * Atomically publish entry `name` (tmp + mtime stamp + fsync +
     * rename), then enforce the byte budget. Never throws: any
     * failure — real or injected — flips the store down and returns
     * false. Callers treat false as "computed but not cached".
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
     * Bring entry bytes back under maxBytes, unlinking entries
     * oldest mtime first (name breaks ties). Rescans the directory,
     * so other processes' publishes and hits count. No-op when
     * unbounded or down.
     */
    void enforceBudget();

  private:
    bool maybeHeal();
    /** Stamp a read entry's mtime now (its LRU recency). */
    static void touch(const std::string &path);
    void enterDown(const std::string &what);
    void reapOrphans() const;

    SharedStoreOptions opts_;

    mutable std::mutex mu_; ///< guards down_/lastProbe_; serializes eviction
    bool down_ = false;
    std::chrono::steady_clock::time_point lastProbe_{};
};

} // namespace bds

#endif // BDS_STORE_SHARED_H
