/**
 * @file
 * Cross-process single-flight leases for the shared on-disk stores.
 *
 * A lease is a small file created with O_CREAT|O_EXCL next to the
 * entry it guards — exactly one process can hold it at a time, with
 * no daemon, no shared memory and no fcntl-lock portability traps.
 * The holder stamps the file with its pid and a monotonic heartbeat
 * counter it re-publishes (atomic temp+rename) every heartbeatMs
 * from a background thread, so "the holder is alive and making
 * progress" is observable by any other process on the host.
 *
 * Waiters poll with bounded exponential backoff and take over a
 * lease deterministically in two cases:
 *
 *  - dead holder: the stamped pid no longer exists (kill(pid, 0) ==
 *    ESRCH) — takeover is immediate;
 *  - wedged holder: the heartbeat counter has not advanced for
 *    staleMs of continuous observation — the holder process exists
 *    but is stuck (or lives on another host; see docs/STORAGE.md for
 *    the single-host pid caveat), so the lease is forfeit.
 *
 * Takeover itself is race-free: the challenger renames the stale
 * lease file aside (exactly one rename(2) wins; losers see ENOENT
 * and re-enter the wait loop), unlinks the renamed corpse, and
 * competes for a fresh O_EXCL create like everyone else.
 *
 * Every filesystem failure in here is reported to the caller as a
 * typed Error(Io) — SharedStore converts it into store-down mode
 * (compute without coordination) rather than crashing.
 */

#ifndef BDS_STORE_LEASE_H
#define BDS_STORE_LEASE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

namespace bds {

/** Timing knobs of the lease protocol (tests shrink these). */
struct LeaseOptions
{
    /** Holder heartbeat re-publish period, milliseconds. */
    std::uint64_t heartbeatMs = 200;

    /**
     * A live-pid holder whose heartbeat counter has not advanced for
     * this long is considered wedged and loses the lease.
     */
    std::uint64_t staleMs = 5000;

    /** Waiter poll backoff: start and cap, milliseconds. */
    std::uint64_t pollMinMs = 2;
    std::uint64_t pollMaxMs = 200;
};

/**
 * An acquired lease. Destruction (or release()) stops the heartbeat
 * thread and unlinks the lease file; both are safe to call after a
 * takeover already removed the file.
 */
class Lease
{
  public:
    ~Lease();

    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;

    /** The lease file path. */
    const std::string &path() const { return path_; }

    /** Stop the heartbeat and unlink the lease file. Idempotent. */
    void release();

  private:
    friend std::unique_ptr<Lease> tryAcquireLease(const std::string &,
                                                  const LeaseOptions &);

    Lease(std::string path, LeaseOptions opts);
    void startHeartbeat();

    std::string path_;
    LeaseOptions opts_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> beat_{0};
    std::thread heartbeat_;
    bool released_ = false;
};

/** What a lease file on disk claims about its holder. */
struct LeaseProbe
{
    long pid = 0;
    std::uint64_t beat = 0;

    /** False when the file exists but cannot be parsed (mid-rewrite
     *  garbage is impossible by construction — publishes are atomic
     *  renames — so unparseable means foreign bytes). */
    bool parsed = false;
};

/**
 * Read and parse the lease file at `path`. Returns false when the
 * file is absent (the lease is free).
 */
bool readLease(const std::string &path, LeaseProbe *out);

/**
 * True when `pid` definitely no longer exists on this host
 * (kill(pid, 0) == ESRCH). Also true for non-positive pids.
 */
bool pidVanished(long pid);

/**
 * Attempt a non-blocking acquire: O_CREAT|O_EXCL the lease file and
 * stamp it. Returns the held lease, or nullptr when another process
 * holds it (EEXIST). Any other filesystem failure is Error(Io).
 */
std::unique_ptr<Lease> tryAcquireLease(const std::string &path,
                                       const LeaseOptions &opts);

/** Why acquireLease() returned without a lease. */
struct LeaseWaitStats
{
    /** Poll iterations spent waiting on someone else's lease. */
    std::uint64_t waits = 0;

    /** Stale leases taken over along the way. */
    std::uint64_t takeovers = 0;

    /** True when cancel() ended the wait (e.g. the entry appeared). */
    bool canceled = false;
};

/**
 * Acquire the lease at `path`, waiting out (or deterministically
 * taking over) any current holder. `cancel` is polled before every
 * create attempt, the first and each one after a backoff sleep or a
 * takeover; when it returns true the wait ends with a null lease and
 * stats->canceled set — the caller's result appeared and the lease
 * is moot. Filesystem failures are Error(Io).
 */
std::unique_ptr<Lease> acquireLease(const std::string &path,
                                    const LeaseOptions &opts,
                                    const std::function<bool()> &cancel,
                                    LeaseWaitStats *stats);

} // namespace bds

#endif // BDS_STORE_LEASE_H
