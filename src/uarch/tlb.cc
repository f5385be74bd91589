#include "uarch/tlb.h"

#include <algorithm>

#include "common/log.h"
#include "fault/error.h"

namespace bds {

TlbArray::TlbArray(const TlbConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.entries == 0 || cfg_.assoc == 0 ||
        cfg_.entries % cfg_.assoc != 0)
        BDS_FATAL("TLB geometry does not divide evenly");
    numSets_ = cfg_.entries / cfg_.assoc;
    setsPow2_ = (numSets_ & (numSets_ - 1)) == 0;
    setMask_ = setsPow2_ ? numSets_ - 1 : 0;
    pages_.assign(cfg_.entries, kInvalidPage);
    lru_.assign(cfg_.entries, 0);
}

TwoLevelTlb::TwoLevelTlb(const TlbConfig &l1i, const TlbConfig &l1d,
                         const TlbConfig &stlb, std::uint32_t page_bytes)
    : pageShift_(0), itlb_(l1i), dtlb_(l1d), stlb_(stlb)
{
    if (page_bytes == 0 || (page_bytes & (page_bytes - 1)) != 0)
        BDS_FATAL("page size must be a power of two");
    while ((1u << pageShift_) < page_bytes)
        ++pageShift_;
}

void
TlbArray::saveState(StateSink &sink) const
{
    sink.section("TLBA");
    sink.u64(cfg_.entries);
    sink.u64(cfg_.assoc);
    sink.u64(tick_);
    std::uint64_t valid = 0;
    for (std::uint64_t p : pages_)
        if (p != kInvalidPage)
            ++valid;
    sink.u64(valid);
    RecordWriter rec = sink.records(valid, kEntryRecordBytes);
    for (std::size_t i = 0; i < pages_.size(); ++i) {
        if (pages_[i] == kInvalidPage)
            continue;
        rec.u64(i);
        rec.u64(pages_[i]);
        rec.u64(lru_[i]);
    }
}

void
TlbArray::loadState(StateSource &src)
{
    src.section("TLBA");
    src.check("tlb.entries", cfg_.entries);
    src.check("tlb.assoc", cfg_.assoc);
    tick_ = src.u64();
    std::uint64_t valid = src.u64();
    if (valid > pages_.size())
        BDS_RAISE(ErrorCode::Io,
                  "TLB state declares " << valid
                      << " valid entries but the array has only "
                      << pages_.size() << " slots (corrupt payload)");
    std::fill(pages_.begin(), pages_.end(), kInvalidPage);
    std::fill(lru_.begin(), lru_.end(), 0);
    RecordReader rec = src.records(valid, kEntryRecordBytes, "TLB entry");
    for (std::uint64_t n = 0; n < valid; ++n) {
        std::uint64_t slot = rec.u64();
        if (slot >= pages_.size())
            BDS_RAISE(ErrorCode::Io,
                      "TLB state names slot " << slot
                          << " outside the " << pages_.size()
                          << "-slot array (corrupt payload)");
        pages_[slot] = rec.u64();
        lru_[slot] = rec.u64();
    }
}

void
TwoLevelTlb::saveState(StateSink &sink) const
{
    sink.section("TLB2");
    itlb_.saveState(sink);
    dtlb_.saveState(sink);
    stlb_.saveState(sink);
}

void
TwoLevelTlb::loadState(StateSource &src)
{
    src.section("TLB2");
    itlb_.loadState(src);
    dtlb_.loadState(src);
    stlb_.loadState(src);
}

} // namespace bds
