/**
 * @file
 * Set-associative cache model with LRU replacement and per-line
 * MESI-style coherence state.
 *
 * One class serves every level: the per-core L1I/L1D/L2 and the
 * shared L3. Lines carry a coherence state (used by the private
 * levels), a dirty bit, and a "shared ever" bit (used by the L3 to
 * implement the paper's LOAD_HIT_L3 metric, which counts loads that
 * hit *unshared* lines in the L3).
 *
 * The storage is flat structure-of-arrays: the tag array is scanned
 * on every lookup, so a set's tags share one cache line and invalid
 * ways carry a sentinel tag that can never match a real line address
 * (line addresses fit in 64 - log2(lineBytes) bits). Set indexing is
 * a mask when the set count is a power of two and a modulo
 * otherwise (the Table III L3 has 12288 sets); line addressing is
 * always a shift. Replacement decisions are bit-identical to the
 * original array-of-structs model — the seed implementation is kept
 * in reference.h and pinned against this one by
 * tests/uarch/test_flat_equivalence.cc.
 */

#ifndef BDS_UARCH_CACHE_H
#define BDS_UARCH_CACHE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "ckpt/state.h"

namespace bds {

/** Coherence state of a cached line. */
enum class CoherenceState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Geometry of one cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024; ///< total capacity
    std::uint32_t assoc = 8;             ///< ways per set
    std::uint32_t lineBytes = 64;        ///< line size (power of two)
};

/** Result of a cache lookup. */
struct CacheLookup
{
    bool hit = false;                   ///< line present and valid
    CoherenceState state = CoherenceState::Invalid; ///< state if hit
};

/** A line evicted by an insert. */
struct Eviction
{
    bool valid = false;     ///< an eviction actually happened
    std::uint64_t lineAddr = 0; ///< line address of the victim
    bool dirty = false;     ///< victim held modified data
};

/**
 * Set-associative cache with true-LRU replacement.
 *
 * Addresses are byte addresses; the cache internally maps them to
 * line addresses. All statistics live in the owner — this class only
 * models state.
 */
class SetAssocCache
{
  public:
    /** Build from a geometry; size/assoc/line must divide evenly. */
    explicit SetAssocCache(const CacheConfig &cfg);

    /** Probe without updating LRU. */
    CacheLookup probe(std::uint64_t addr) const
    {
        std::uint64_t la = lineAddr(addr);
        std::uint64_t base = setBase(la);
        int w = findWay(base, la);
        if (w < 0)
            return {};
        return {true, states_[base + static_cast<std::uint64_t>(w)]};
    }

    /** Probe and update LRU on hit. */
    CacheLookup access(std::uint64_t addr)
    {
        std::uint64_t la = lineAddr(addr);
        std::uint64_t base = setBase(la);
        int w = findWay(base, la);
        if (w < 0)
            return {};
        std::uint64_t i = base + static_cast<std::uint64_t>(w);
        lru_[i] = ++tick_;
        return {true, states_[i]};
    }

    /**
     * Insert a line (must not already be present), evicting the LRU
     * way if the set is full.
     * @param addr Byte address within the line.
     * @param state Initial coherence state.
     * @return The eviction, if any.
     */
    Eviction insert(std::uint64_t addr, CoherenceState state,
                    bool dirty = false)
    {
        checkInsertable(state);
        std::uint64_t la = lineAddr(addr);
        std::uint64_t base = setBase(la);
        return fillVictim<true>(base, la, state, dirty);
    }

    /**
     * Insert the line, or just change its state when it is already
     * present (the LRU order is untouched in that case, matching a
     * probe-then-setState pair). One tag scan instead of the two an
     * explicit probe + insert/setState would cost.
     */
    Eviction insertOrSetState(std::uint64_t addr, CoherenceState state)
    {
        checkInsertable(state);
        std::uint64_t la = lineAddr(addr);
        std::uint64_t base = setBase(la);
        int w = findWay(base, la);
        if (w >= 0) {
            states_[base + static_cast<std::uint64_t>(w)] = state;
            return {};
        }
        return fillVictim<false>(base, la, state);
    }

    /** Change the coherence state of a present line. */
    void setState(std::uint64_t addr, CoherenceState state);

    /**
     * Change the state of a present line and mark it dirty in one
     * tag scan (equivalent to setState followed by setDirty).
     */
    void setStateDirty(std::uint64_t addr, CoherenceState state);

    /**
     * Change the state when the line is present; no-op otherwise.
     * @return True when the line was present.
     */
    bool setStateIfPresent(std::uint64_t addr, CoherenceState state)
    {
        std::uint64_t la = lineAddr(addr);
        std::uint64_t base = setBase(la);
        int w = findWay(base, la);
        if (w < 0)
            return false;
        states_[base + static_cast<std::uint64_t>(w)] = state;
        return true;
    }

    /** Mark a present line dirty. */
    void setDirty(std::uint64_t addr);

    /**
     * Mark the line dirty when present; no-op otherwise.
     * @return True when the line was present.
     */
    bool setDirtyIfPresent(std::uint64_t addr)
    {
        std::uint64_t la = lineAddr(addr);
        std::uint64_t base = setBase(la);
        int w = findWay(base, la);
        if (w < 0)
            return false;
        flags_[base + static_cast<std::uint64_t>(w)] |= kDirty;
        return true;
    }

    /** Mark/query the L3 "touched by more than one core" flag. */
    void markShared(std::uint64_t addr);

    /**
     * Mark the line shared — and optionally dirty too — when it is
     * present; no-op otherwise. One tag scan for what would be a
     * probe + markShared (+ setDirty) sequence.
     * @return True when the line was present.
     */
    bool markSharedIfPresent(std::uint64_t addr, bool also_dirty = false)
    {
        std::uint64_t la = lineAddr(addr);
        std::uint64_t base = setBase(la);
        int w = findWay(base, la);
        if (w < 0)
            return false;
        flags_[base + static_cast<std::uint64_t>(w)] |=
            also_dirty ? (kSharedEver | kDirty) : kSharedEver;
        return true;
    }

    /** True when the line is present and was marked shared. */
    bool isMarkedShared(std::uint64_t addr) const;

    /** Remove a line if present; returns whether it was dirty. */
    bool invalidate(std::uint64_t addr)
    {
        std::uint64_t la = lineAddr(addr);
        std::uint64_t base = setBase(la);
        int w = findWay(base, la);
        if (w < 0)
            return false;
        std::uint64_t i = base + static_cast<std::uint64_t>(w);
        bool dirty = (flags_[i] & kDirty) != 0;
        tags_[i] = kInvalidTag;
        states_[i] = CoherenceState::Invalid;
        flags_[i] = 0;
        return dirty;
    }

    /** Number of valid lines currently held. */
    std::uint64_t validLines() const;

    /**
     * Visit every valid line.
     * @param fn Callback receiving (line address, state, dirty).
     */
    void forEachLine(
        const std::function<void(std::uint64_t, CoherenceState, bool)>
            &fn) const;

    /** Geometry. */
    const CacheConfig &config() const { return cfg_; }

    /** Line address (addr / lineBytes; lineBytes is a power of two). */
    std::uint64_t lineAddr(std::uint64_t addr) const
    {
        return addr >> lineShift_;
    }

    /**
     * How setBase maps a line address to its set. Chosen — and for
     * Factor3, verified against plain modulo — at construction, so
     * arbitrary DSE geometries are correct by fallback rather than
     * by assumption (the seed code assumed the Table III 12288-set
     * L3 was the only non-power-of-two anyone would build).
     */
    enum class SetMapKind : std::uint8_t
    {
        Pow2,    ///< set count is a power of two: mask
        Factor3, ///< odd factor 3: divide-free decomposition
        Modulo,  ///< anything else: plain la % numSets_
    };

    /** The set-index strategy this geometry selected (for tests). */
    SetMapKind setMapKind() const { return setMap_; }

    /**
     * Serialize the full replacement-relevant state — the LRU tick
     * clock plus every valid line's slot, tag, LRU stamp, coherence
     * state and dirty/shared flags — preceded by a geometry guard.
     * Valid lines are stored sparsely (a warm cache is usually far
     * from full), so payload size tracks occupancy, not capacity.
     */
    void saveState(StateSink &sink) const;

    /**
     * Restore a saveState() payload into this cache. The geometry
     * guard must match this cache's configuration; any mismatch or
     * structural violation is a typed Error(Io) and the cache is left
     * in an unspecified but valid state (callers discard it).
     */
    void loadState(StateSource &src);

  private:
    /** Tag value of an invalid way; unreachable as a line address. */
    static constexpr std::uint64_t kInvalidTag = ~0ULL;

    /** One saved line: slot, tag, LRU stamp (u64 each), state, flags. */
    static constexpr std::size_t kLineRecordBytes = 3 * 8 + 2;

    static constexpr std::uint8_t kDirty = 1;      ///< flags_ bit 0
    static constexpr std::uint8_t kSharedEver = 2; ///< flags_ bit 1

    /** First slot of the set holding the line. */
    std::uint64_t setBase(std::uint64_t la) const
    {
        // la % numSets_ without a hardware divide where possible.
        // numSets_ = oddFactor_ * 2^twoPow_, and
        //   la % (m * 2^k) == ((la >> k) % m) << k | (la & (2^k - 1)),
        // so the only divide left is by the odd factor — and for the
        // common factor 3 (the Table III 12 MB L3 has 12288 sets) the
        // constant modulo compiles to a multiply.
        std::uint64_t set;
        if (setMap_ == SetMapKind::Pow2)
            set = la & setMask_;
        else if (setMap_ == SetMapKind::Factor3)
            set = ((((la >> twoPow_) % 3) << twoPow_) |
                   (la & twoMask_));
        else
            set = la % numSets_;
        return set * cfg_.assoc;
    }

    /** Way within the set holding the line, or -1. */
    int findWay(std::uint64_t base, std::uint64_t la) const
    {
        const std::uint64_t *tags = tags_.data() + base;
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w)
            if (tags[w] == la)
                return static_cast<int>(w);
        return -1;
    }

    /**
     * Claim a way for `la` in the set at `base` — the first invalid
     * way, else the true-LRU victim — and fill it.
     *
     * With kCheckPresent, the double-insert tripwire rides the victim
     * scan instead of costing a second pass over the tags: complete
     * whenever the set is full (the eviction steady state), partial —
     * ways up to the first invalid one — while the set still has
     * holes. Callers that just proved absence via findWay pass false.
     * @return The eviction when a valid line was displaced.
     */
    template <bool kCheckPresent>
    Eviction fillVictim(std::uint64_t base, std::uint64_t la,
                        CoherenceState state, bool dirty = false)
    {
        std::uint32_t victim = 0;
        bool found_invalid = false;
        std::uint64_t oldest = UINT64_MAX;
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            std::uint64_t i = base + w;
            if (kCheckPresent && tags_[i] == la)
                fatalAlreadyPresent(la);
            if (tags_[i] == kInvalidTag) {
                victim = w;
                found_invalid = true;
                break;
            }
            if (lru_[i] < oldest) {
                oldest = lru_[i];
                victim = w;
            }
        }

        Eviction ev;
        std::uint64_t i = base + victim;
        if (!found_invalid) {
            ev.valid = true;
            ev.lineAddr = tags_[i];
            ev.dirty = (flags_[i] & kDirty) != 0;
        }
        tags_[i] = la;
        states_[i] = state;
        flags_[i] = dirty ? kDirty : 0;
        lru_[i] = ++tick_;
        return ev;
    }

    /** Reject inserting an Invalid-state line (cold path). */
    static void checkInsertable(CoherenceState state)
    {
        if (state == CoherenceState::Invalid)
            fatalInvalidInsert();
    }

    [[noreturn]] static void fatalInvalidInsert();
    [[noreturn]] static void fatalAlreadyPresent(std::uint64_t la);

    CacheConfig cfg_;
    std::uint64_t numSets_;
    std::uint64_t setMask_;   ///< numSets_ - 1 when pow2
    std::uint64_t oddFactor_; ///< odd part of numSets_
    std::uint64_t twoMask_;   ///< 2^twoPow_ - 1
    std::uint32_t twoPow_;    ///< exponent of the pow2 part
    std::uint32_t lineShift_; ///< log2(lineBytes)
    SetMapKind setMap_;       ///< validated at construction
    std::uint64_t tick_ = 0;

    // Parallel per-slot arrays, indexed set * assoc + way. A set's
    // tags are contiguous, so the hot scan touches one cache line.
    std::vector<std::uint64_t> tags_;   ///< line address or kInvalidTag
    std::vector<std::uint64_t> lru_;    ///< LRU tick per slot
    std::vector<CoherenceState> states_; ///< state per slot
    std::vector<std::uint8_t> flags_;   ///< dirty/sharedEver bits
};

} // namespace bds

#endif // BDS_UARCH_CACHE_H
