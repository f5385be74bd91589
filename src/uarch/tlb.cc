#include "uarch/tlb.h"

#include <algorithm>

#include "common/log.h"
#include "fault/error.h"
#include "uarch/ways.h"

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
    saveWays(sink, pages_.data(), lru_.data(), nullptr, numSets_,
             cfg_.assoc, kInvalidPage,
             [&](std::uint64_t page) { return page / numSets_; });
}

void
TlbArray::loadState(StateSource &src)
{
    src.section("TLBA");
    src.check("tlb.entries", cfg_.entries);
    src.check("tlb.assoc", cfg_.assoc);
    tick_ = src.u64();
    loadWays(src, pages_.data(), lru_.data(), numSets_, cfg_.assoc,
             kInvalidPage, tick_, 0, [] {}, [](std::uint64_t, std::uint8_t) {});
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
