/**
 * @file
 * Two-level TLB model matching the paper's Westmere (Table III):
 * split 64-entry 4-way L1 ITLB/DTLB and a shared 512-entry 4-way
 * second-level TLB (STLB), 4 KB pages, with a fixed page-walk cost.
 *
 * Storage is the same flat structure-of-arrays shape as the caches:
 * a contiguous page-number array scanned per set (invalid ways hold a
 * sentinel page number no translation can produce), set indexing by
 * mask when the set count is a power of two. Replacement is
 * bit-identical to the seed array-of-structs model (reference.h),
 * pinned by tests/uarch/test_flat_equivalence.cc.
 */

#ifndef BDS_UARCH_TLB_H
#define BDS_UARCH_TLB_H

#include <cstdint>
#include <vector>

#include "ckpt/state.h"

namespace bds {

/** Outcome of one TLB translation. */
enum class TlbOutcome : std::uint8_t
{
    L1Hit,   ///< hit in the first-level TLB
    StlbHit, ///< missed L1, hit the shared second level
    Walk,    ///< missed both levels — page walk
};

/** Geometry of one TLB level. */
struct TlbConfig
{
    std::uint32_t entries = 64; ///< total entries
    std::uint32_t assoc = 4;    ///< ways per set
};

/** One set-associative TLB level (LRU). */
class TlbArray
{
  public:
    explicit TlbArray(const TlbConfig &cfg);

    /** Probe-and-update: true on hit. */
    bool access(std::uint64_t page)
    {
        std::uint64_t base = setBase(page);
        const std::uint64_t *pages = pages_.data() + base;
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            if (pages[w] == page) {
                lru_[base + w] = ++tick_;
                return true;
            }
        }
        return false;
    }

    /** Install a translation, evicting LRU if needed. */
    void insert(std::uint64_t page)
    {
        std::uint64_t base = setBase(page);
        // Prefer an invalid way; otherwise evict true-LRU.
        std::uint32_t victim = 0;
        std::uint64_t oldest = UINT64_MAX;
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            std::uint64_t i = base + w;
            if (pages_[i] == kInvalidPage) {
                victim = w;
                break;
            }
            if (lru_[i] < oldest) {
                oldest = lru_[i];
                victim = w;
            }
        }
        std::uint64_t i = base + victim;
        pages_[i] = page;
        lru_[i] = ++tick_;
    }

    /** Serialize the LRU clock and every valid translation. */
    void saveState(StateSink &sink) const;

    /** Restore a saveState() payload; Error(Io) on any mismatch. */
    void loadState(StateSource &src);

  private:
    /** Page value of an invalid way; unreachable as a page number. */
    static constexpr std::uint64_t kInvalidPage = ~0ULL;

    /** One saved entry: slot, page, LRU stamp (u64 each). */
    static constexpr std::size_t kEntryRecordBytes = 3 * 8;

    /** First slot of the set holding the page. */
    std::uint64_t setBase(std::uint64_t page) const
    {
        std::uint64_t set =
            setsPow2_ ? (page & setMask_) : (page % numSets_);
        return set * cfg_.assoc;
    }

    TlbConfig cfg_;
    std::uint32_t numSets_;
    std::uint64_t setMask_; ///< numSets_ - 1 when pow2
    bool setsPow2_;
    std::uint64_t tick_ = 0;
    std::vector<std::uint64_t> pages_; ///< page number or kInvalidPage
    std::vector<std::uint64_t> lru_;   ///< LRU tick per slot
};

/**
 * One core's two-level TLB: private L1 I/D arrays in front of a
 * shared-per-core STLB (Westmere's STLB is per core; "shared" refers
 * to instructions and data sharing it).
 */
class TwoLevelTlb
{
  public:
    /**
     * @param l1i First-level instruction TLB geometry.
     * @param l1d First-level data TLB geometry.
     * @param stlb Second-level TLB geometry.
     * @param page_bytes Page size (power of two).
     */
    TwoLevelTlb(const TlbConfig &l1i, const TlbConfig &l1d,
                const TlbConfig &stlb, std::uint32_t page_bytes = 4096);

    /** Translate an instruction address. */
    TlbOutcome translateCode(std::uint64_t addr)
    {
        return translate(itlb_, addr);
    }

    /** Translate a data address. */
    TlbOutcome translateData(std::uint64_t addr)
    {
        return translate(dtlb_, addr);
    }

    /** Serialize all three arrays (ITLB, DTLB, STLB). */
    void saveState(StateSink &sink) const;

    /** Restore a saveState() payload; Error(Io) on any mismatch. */
    void loadState(StateSource &src);

  private:
    TlbOutcome translate(TlbArray &l1, std::uint64_t addr)
    {
        std::uint64_t page = addr >> pageShift_;
        if (l1.access(page))
            return TlbOutcome::L1Hit;
        if (stlb_.access(page)) {
            l1.insert(page);
            return TlbOutcome::StlbHit;
        }
        stlb_.insert(page);
        l1.insert(page);
        return TlbOutcome::Walk;
    }

    std::uint32_t pageShift_;
    TlbArray itlb_;
    TlbArray dtlb_;
    TlbArray stlb_;
};

} // namespace bds

#endif // BDS_UARCH_TLB_H
