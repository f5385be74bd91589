/**
 * @file
 * The content-addressed result store: disk-backed, versioned cache
 * entries keyed by runConfigHash(), so a repeated characterization
 * request is a file read instead of a re-simulation.
 *
 * An entry holds everything needed to answer any projection of its
 * cell — the full-suite 45-metric CSV exactly as the batch tools
 * write it (byte-identical responses are the contract), the row
 * labels, the canonical configuration text that hashed to the key
 * (audit trail + collision tripwire), and a per-request mini
 * manifest. The payload carries a checksum; loading verifies
 * magic, version, byte counts, the checksum and the END sentinel, so
 * a corrupt or truncated entry is a typed Io error the serving layer
 * converts into a transparent recompute (the same hardening idiom as
 * the trace loader).
 *
 * The store sits on the shared-storage layer (src/store/shared.h,
 * docs/STORAGE.md): publishes are atomic and durable (temp + fsync +
 * rename), the directory honours the BDS_STORE_MAX_BYTES budget with
 * LRU eviction, and any filesystem failure degrades to store-down
 * mode — requests keep computing correct results, they just stop
 * being cached until the disk heals.
 *
 * Single-flight is two-level. Within a process, getOrCompute()
 * deduplicates concurrent same-key requests: one computes, the rest
 * wait for its result. Across processes, the per-process leader
 * takes the entry's lease file: exactly one daemon computes a given
 * cell while the other daemons' leaders wait for its publish (or
 * deterministically take over if it dies or wedges).
 */

#ifndef BDS_SERVE_STORE_H
#define BDS_SERVE_STORE_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "store/shared.h"

namespace bds {

/**
 * Version of the on-disk entry layout. v2 retired every v1 entry:
 * v1 cells were keyed by a config hash that could not distinguish
 * machine geometries, so replaying them against v2 keys could alias
 * results across machines. v3 replaced the byte-serial FNV-1a
 * `csv_fnv` line with `csv_sum`, the word-wise stateChecksum() every
 * store file shares. An entry of any other version on disk is a
 * typed Io error from readResultEntry(), which getOrCompute() treats
 * like any other corrupt entry — recompute and overwrite, never
 * crash.
 */
constexpr unsigned kResultStoreVersion = 3;

/** One cached characterization cell. */
struct ResultEntry
{
    /** The store key: runConfigHashHex() of the resolved config. */
    std::string hashHex;

    /** canonicalRunConfig() text that produced hashHex. */
    std::string canonicalConfig;

    /** Surviving workload labels, matrix row order. */
    std::vector<std::string> names;

    /**
     * The metric matrix as CSV bytes, exactly what writeMetricsCsv()
     * emits for the full Table II sweep of this cell.
     */
    std::string csv;

    /**
     * Per-request manifest: a small JSON object recording tool,
     * library version, creation time and compute wall-clock.
     */
    std::string manifestJson;
};

/** What a getOrCompute() callback returns. */
struct ComputedResult
{
    ResultEntry entry;

    /**
     * False keeps the entry out of the store — a quarantined sweep
     * is incomplete by design and must never masquerade as the
     * full-suite cell.
     */
    bool cacheable = true;

    /**
     * Workloads the sweep quarantined (empty on clean computes and
     * disk hits). Carried through the single-flight handoff so a
     * follower of a quarantined compute can report the missing rows
     * instead of passing the survivor-only payload off as a clean
     * full-suite hit.
     */
    std::vector<std::string> quarantined;
};

/** Disk-backed content-addressed store with single-flight compute. */
class ResultStore
{
  public:
    /**
     * Open the store directory, creating it if needed.
     * Error(InvalidConfig) when `dir` is empty; an *uncreatable*
     * directory opens the store in down mode (every request
     * computes, nothing caches) instead of failing the daemon.
     * `maxBytes` bounds the entry bytes on disk (LRU eviction);
     * 0 = unbounded.
     */
    explicit ResultStore(std::string dir, std::uint64_t maxBytes = 0);

    /** The entry file of a key. */
    std::string entryPath(const std::string &hashHex) const;

    /** The store directory. */
    const std::string &dir() const { return backend_.dir(); }

    /** True while the backing store is degraded (not caching). */
    bool storeDown() const { return backend_.down(); }

    /**
     * Load the entry for `hashHex`. Returns false when absent (or
     * the store is down); raises Error(Io) when present but corrupt,
     * truncated, of a foreign version, or keyed to a different hash.
     */
    bool load(const std::string &hashHex, ResultEntry *out) const;

    /**
     * Durably persist an entry (temp + fsync + rename), then enforce
     * the byte budget. Never throws: false means the entry was not
     * cached (store down / disk failure) — the computed result is
     * still valid for the caller.
     */
    bool store(const ResultEntry &entry) const;

    /**
     * The serving fast path: return the cached entry for `hashHex`
     * or run `compute` exactly once — concurrent same-key callers
     * wait for the winner's result instead of recomputing, and a
     * corrupt cache file is recomputed and replaced transparently.
     * Exceptions from `compute` propagate to every waiting caller
     * and nothing is cached.
     *
     * @param hit Set to true iff the result is cache-backed: a disk
     *        read, or a single-flight wait for a cacheable compute.
     *        A follower of an uncacheable (quarantined) compute is
     *        not a hit — its payload is survivor-only.
     */
    ComputedResult getOrCompute(const std::string &hashHex,
                                const std::function<ComputedResult()> &compute,
                                bool *hit);

  private:
    /** In-flight computation shared by concurrent same-key callers. */
    struct Flight;

    /** Entry filename of a key ("<hash>.result"). */
    static std::string entryName(const std::string &hashHex);

    /** load() with corrupt entries demoted to a warned miss. */
    bool tryLoad(const std::string &hashHex, ResultEntry *out) const;

    /** Shared-storage backend (leases, budget, degradation); mutable
     *  because reads bump recency and the down flag. */
    mutable SharedStore backend_;
    std::mutex mutex_;
    std::map<std::string, std::shared_ptr<Flight>> inflight_;
};

/** Serialize an entry to the on-disk format. */
std::string writeResultEntry(const ResultEntry &entry);

/**
 * Parse an entry from a whole file's bytes; `what` names the source
 * in diagnostics. Raises Error(Io) on any structural violation.
 */
ResultEntry readResultEntry(std::string_view bytes, const std::string &what);

} // namespace bds

#endif // BDS_SERVE_STORE_H
