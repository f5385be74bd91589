/**
 * @file
 * The interval checkpoint container and its disk cache.
 *
 * A checkpoint captures the full SystemModel state at the entry of
 * one sampled representative interval — after the replayer has
 * unfrozen and zeroed the counters — plus the interval's detail
 * slice, so a later run whose every representative has an entry
 * restores each one and replays its slice instead of re-executing
 * and functionally warming the stream (docs/CHECKPOINT.md; the SESC
 * `*_chpt.conf` idiom). Each stream's directory holds one capture
 * record of its picks beside the entries (sample/capture.h).
 *
 * Keying: a checkpoint is only valid for the exact op stream and
 * machine that produced it, so the key is the v2 runConfigHash (which
 * folds in scale, seed, the resolved machine geometry, every sampling
 * knob and the fault spec), plus the machine slug (human-readable
 * filename component + restore tripwire), the workload name, the
 * cluster-node shard and the interval index. The canonical machine
 * text rides inside the container and must match exactly on load —
 * a checkpoint can never be poured into a different geometry.
 *
 * Discipline (same as the serve result store — both sit on the
 * shared-storage layer, src/store/shared.h): writes are atomic and
 * durable (temp file + fsync + rename) so concurrent processes
 * sharing one directory never observe half a checkpoint; the
 * directory honours the BDS_CKPT_MAX_BYTES budget with LRU eviction;
 * any filesystem failure degrades the cache to store-down mode
 * (replays warm from zero, nothing crashes); every load verifies
 * magic, version, key fields and the payload checksum, and any
 * violation is a typed Error(Io) / Error(InvalidConfig) the replayer
 * converts into a counted fallback: that pass simulates from zero.
 */

#ifndef BDS_CKPT_CHECKPOINT_H
#define BDS_CKPT_CHECKPOINT_H

#include <cstdint>
#include <string>
#include <string_view>

#include "store/shared.h"
#include "trace/recorder.h"

namespace bds {

/**
 * Version of the on-disk checkpoint layout *and* of the state-payload
 * schema underneath it (the saveState() field lists). Bump on any
 * change to either; a foreign version on disk is a typed Io error
 * that the replayer treats as "no checkpoint" — stale state is never
 * silently restored. Version 2 replaced the byte-serial FNV-1a
 * `state_fnv` header field with `state_sum` (stateChecksum());
 * version 3 added the representative's detail slice (`ops_sum`,
 * `ops_bytes`); version 4 made both payloads dense: per-set valid
 * bitmaps, fixed-width tag quotients and LRU ranks, packed gshare
 * counters, and a varint-delta slice (docs/CHECKPOINT.md).
 */
constexpr unsigned kCheckpointVersion = 4;

/** Identity of one checkpoint stream (all intervals share it). */
struct CheckpointKey
{
    /** runConfigHashHex() of the resolved run configuration. */
    std::string configHash;

    /** machineSlug() of the spec — filename component + tripwire. */
    std::string machineSlug;

    /**
     * canonicalMachineText() of the resolved geometry. Stored in the
     * container and compared exactly on load: equality implies every
     * structure-level geometry guard in the payload matches too.
     */
    std::string machineText;

    /** Workload name ("H-Sort", ...). */
    std::string workload;

    /** Cluster-node shard index. */
    unsigned node = 0;
};

/**
 * One checkpoint: the key, the interval, the state payload and the
 * slice. The payloads are views: into `file` for an entry read from
 * disk, into the caller's bytes for one about to be written.
 */
struct CheckpointEntry
{
    CheckpointKey key;
    std::uint64_t interval = 0;

    /** SystemModel::saveState() bytes. */
    std::string_view state;

    /**
     * The representative's detail slice, in TraceRecorder::encode()
     * bytes: every op and DMA fill the model received from the
     * interval's first op up to the next interval's first op. Empty
     * when the entry carries none; the sampled replayer never
     * restores such an entry (it counts a miss, simulates from zero
     * and rewrites the entry with its slice).
     */
    std::string_view ops;

    /** The bytes of a read entry, which `state` and `ops` point into. */
    FileBytes file;
};

/**
 * A snapshot of the checkpoint and capture-record counters of the
 * registry (obs/metrics.h), field by field. The registry is the one
 * home of these counts; this struct stays because the wall-clock
 * ledger and the bench/test pass deltas read its named fields.
 */
struct CkptStats
{
    std::uint64_t hits = 0;      ///< checkpoints restored
    std::uint64_t misses = 0;    ///< not restored, not bad: absent,
                                 ///< slice-less, or beside a bad one
    std::uint64_t writes = 0;    ///< checkpoints persisted
    std::uint64_t fallbacks = 0; ///< present but corrupt/mismatched
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;

    /** Capture-record traffic (sample/capture.h), counted apart. */
    std::uint64_t captureHits = 0;
    std::uint64_t captureMisses = 0;
    std::uint64_t captureWrites = 0;
    std::uint64_t captureFallbacks = 0;
};

/** The registry's current ckpt.* and capture.* values. */
CkptStats ckptStats();

/**
 * Disk-backed checkpoint cache: one directory shared by the sampled
 * pipeline, bds_serve and bench/dse_sweep. Thread-safe by
 * construction — entries are immutable once published and writes are
 * atomic renames.
 */
class CheckpointCache
{
  public:
    /**
     * Open the cache directory, creating it if needed.
     * Error(InvalidConfig) when `dir` is empty; an *uncreatable*
     * directory opens the cache in down mode (replays warm from
     * zero) instead of failing the run. `maxBytes` bounds the
     * checkpoint bytes on disk (LRU eviction); 0 = unbounded.
     */
    explicit CheckpointCache(std::string dir,
                             std::uint64_t maxBytes = 0);

    /** True while the backing store is degraded (not caching). */
    bool storeDown() const { return backend_.down(); }

    /** The entry file of (key, interval). */
    std::string path(const CheckpointKey &key,
                     std::uint64_t interval) const;

    /** The cache directory. */
    const std::string &dir() const { return backend_.dir(); }

    /**
     * Load the state payload for (key, interval) into *state.
     * Returns false when absent. Raises Error(Io) on a corrupt,
     * truncated or foreign-version entry and Error(InvalidConfig)
     * when the entry belongs to a different machine or key. Counts a
     * hit (and bytes read) on success. The sampled replayer reads
     * whole entries with read(); this state-only view serves the
     * wall-clock ledger's checkpoint-layer probe.
     */
    bool load(const CheckpointKey &key, std::uint64_t interval,
              std::string *state) const;

    /**
     * Read and verify the whole entry of (key, interval) — state and
     * slice — into *entry, in place in the one buffer the file is
     * read into, without counting anything: the sampled
     * replayer counts its hits (ckpt.hits) only once every
     * representative restored. Returns false when absent; raises as
     * load() does.
     */
    bool read(const CheckpointKey &key, std::uint64_t interval,
              CheckpointEntry *entry) const;

    /**
     * Durably persist a checkpoint (temp + fsync + rename), then
     * enforce the byte budget. Never throws: a disk failure degrades
     * the cache (counted, warned) instead of failing the replay —
     * the checkpoint is an accelerator, not a correctness input.
     * Counts a write and the payload bytes when the publish lands.
     * The entry carries no slice, so the sampled replayer never
     * restores it.
     */
    void store(const CheckpointKey &key, std::uint64_t interval,
               std::string_view state) const;

    /** store() of an entry that also carries its detail slice. */
    void store(const CheckpointKey &key, std::uint64_t interval,
               std::string_view state, const TraceRecorder &slice) const;

    /**
     * The capture-record file of key's (workload, node) stream. It
     * shares the directory, the byte budget and the LRU eviction of
     * the representative entries; sample/capture.h owns its format.
     */
    std::string capturePath(const CheckpointKey &key) const;

    /** Read key's capture record; false when absent. Counts nothing. */
    bool loadCapture(const CheckpointKey &key, std::string *bytes) const;

    /**
     * Durably publish key's capture record. Never throws, like
     * store(); counts a capture write when the publish lands.
     */
    void storeCapture(const CheckpointKey &key,
                      const std::string &bytes) const;

  private:
    /** Entry filename of (key, interval). */
    static std::string entryName(const CheckpointKey &key,
                                 std::uint64_t interval);

    /** Capture-record filename of key's stream. */
    static std::string captureName(const CheckpointKey &key);

    /** Shared-storage backend (budget, degradation); mutable because
     *  reads bump recency and the down flag. */
    mutable SharedStore backend_;
};

/** Serialize a checkpoint to the on-disk format. */
std::string writeCheckpoint(const CheckpointEntry &entry);

/**
 * Parse a whole checkpoint file's bytes, whatever its key; `what`
 * names the source in diagnostics. The returned entry owns `bytes`,
 * and its payloads point into them. Error(Io) on structural
 * violations, including a checksum mismatch in either payload. The
 * payloads' contents are checked by their decoders
 * (SystemModel::loadState, TraceRecorder::replayEncoded).
 */
CheckpointEntry parseCheckpoint(FileBytes bytes, const std::string &what);

/**
 * parseCheckpoint(), then verify the entry is the one of the expected
 * key/interval: Error(InvalidConfig) on machine/key mismatches.
 */
CheckpointEntry readCheckpoint(FileBytes bytes, const std::string &what,
                               const CheckpointKey &expected,
                               std::uint64_t expectedInterval);

} // namespace bds

#endif // BDS_CKPT_CHECKPOINT_H
