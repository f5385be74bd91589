/**
 * @file
 * LRU recency index for the shared on-disk stores.
 *
 * The index file (`store.index` inside the store directory) orders
 * entry files by recency so eviction can pick true LRU victims even
 * across process restarts, where in-memory recency is gone. It is a
 * *cache*, never the source of truth: the entry files themselves are
 * authoritative for existence and size, and every recency fact the
 * index holds can be reconstructed from file mtimes. Consequently:
 *
 *  - a corrupt, truncated or foreign-version index is discarded and
 *    rebuilt from a directory scan (counted as store.index_rebuild),
 *    never trusted and never fatal;
 *  - an index entry whose file vanished (crash mid-evict after the
 *    unlink, concurrent eviction by another daemon) is dropped on
 *    reconcile — a crash between "unlink entry" and "rewrite index"
 *    costs nothing;
 *  - a file the index has never heard of (published by another
 *    process, or indexed before a crash lost the rewrite) is adopted
 *    with mtime-derived recency.
 *
 * Recency is a monotone logical sequence number, not a wall-clock
 * timestamp: rebuilds translate mtime order into fresh sequence
 * numbers, and every touch takes the next one.
 */

#ifndef BDS_STORE_INDEX_H
#define BDS_STORE_INDEX_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bds {

/** One entry file as the index knows it. */
struct IndexedEntry
{
    std::string name; ///< filename relative to the store dir
    std::uint64_t bytes = 0;
    std::uint64_t seq = 0; ///< recency; larger = more recent
};

/** What a directory scan reports about one entry file. */
struct ScannedEntry
{
    std::string name;
    std::uint64_t bytes = 0;

    /** Mtime in seconds (any epoch — only the ordering is used). */
    std::int64_t mtime = 0;
};

/**
 * In-memory LRU index with an atomic-rename on-disk form. All disk
 * failures surface as plain bool returns — the caller (SharedStore)
 * owns degradation policy.
 */
class StoreIndex
{
  public:
    /**
     * Parse the index file at `path` into this object. Returns false
     * when the file is absent, corrupt, truncated or a foreign
     * version — the caller rebuilds from a scan. On false the object
     * is left empty.
     */
    bool load(const std::string &path);

    /**
     * Atomically persist (per-process temp + rename). Returns false on any
     * filesystem failure; the index on disk is then simply stale,
     * which the next reconcile absorbs.
     */
    bool save(const std::string &path) const;

    /**
     * Rebuild from a directory scan: recency becomes mtime order
     * (ties broken by name for determinism), translated into fresh
     * sequence numbers.
     */
    void rebuild(const std::vector<ScannedEntry> &scan);

    /**
     * Reconcile against a scan without losing logical recency: drop
     * entries whose file vanished, adopt unknown files with recency
     * derived from mtime order (interleaved below all indexed
     * entries touched after them is unknowable, so adopted files
     * slot in by mtime against each other, above nothing), and
     * refresh byte sizes from the scan.
     */
    void reconcile(const std::vector<ScannedEntry> &scan);

    /** Mark `name` most-recently-used (inserting if unknown). */
    void touch(const std::string &name, std::uint64_t bytes);

    /** Remove `name` (no-op when unknown). */
    void erase(const std::string &name);

    /** Sum of entry sizes as indexed. */
    std::uint64_t totalBytes() const;

    /** Entries sorted least-recently-used first. */
    std::vector<IndexedEntry> lruOrder() const;

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

  private:
    std::map<std::string, IndexedEntry> entries_;
    std::uint64_t nextSeq_ = 1;
};

} // namespace bds

#endif // BDS_STORE_INDEX_H
