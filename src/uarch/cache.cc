#include "uarch/cache.h"

#include <algorithm>

#include "common/log.h"
#include "fault/error.h"

namespace bds {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

SetAssocCache::SetAssocCache(const CacheConfig &cfg)
    : cfg_(cfg)
{
    if (!isPow2(cfg_.lineBytes))
        BDS_FATAL("line size must be a power of two");
    if (cfg_.assoc == 0 || cfg_.sizeBytes == 0)
        BDS_FATAL("cache must have nonzero size and associativity");
    std::uint64_t lines = cfg_.sizeBytes / cfg_.lineBytes;
    if (lines == 0 || lines % cfg_.assoc != 0)
        BDS_FATAL("cache geometry does not divide evenly: " << lines
                  << " lines, " << cfg_.assoc << " ways");
    numSets_ = lines / cfg_.assoc;
    const bool pow2 = isPow2(numSets_);
    setMask_ = pow2 ? numSets_ - 1 : 0;
    oddFactor_ = numSets_;
    twoPow_ = 0;
    while ((oddFactor_ & 1) == 0) {
        oddFactor_ >>= 1;
        ++twoPow_;
    }
    twoMask_ = (1ULL << twoPow_) - 1;
    lineShift_ = 0;
    while ((1u << lineShift_) < cfg_.lineBytes)
        ++lineShift_;

    // Pick the set-index strategy once, here, instead of assuming it
    // per access: mask for power-of-two set counts, the divide-free
    // decomposition for odd factor 3, plain modulo for every other
    // geometry a DSE sweep may build. The Factor3 choice is verified
    // against plain modulo on probe addresses spanning several wrap-
    // arounds — any mismatch (a future edit breaking the identity)
    // downgrades to the always-correct modulo path rather than
    // silently mis-indexing sets.
    if (pow2) {
        setMap_ = SetMapKind::Pow2;
    } else if (oddFactor_ == 3) {
        setMap_ = SetMapKind::Factor3;
        for (std::uint64_t la = 0; la < 8 * numSets_ + 7;
             la += numSets_ / 5 + 1) {
            const std::uint64_t fast =
                (((la >> twoPow_) % 3) << twoPow_) | (la & twoMask_);
            if (fast != la % numSets_) {
                setMap_ = SetMapKind::Modulo;
                break;
            }
        }
    } else {
        setMap_ = SetMapKind::Modulo;
    }
    tags_.assign(lines, kInvalidTag);
    lru_.assign(lines, 0);
    states_.assign(lines, CoherenceState::Invalid);
    flags_.assign(lines, 0);
}

void
SetAssocCache::fatalInvalidInsert()
{
    BDS_FATAL("cannot insert an Invalid line");
}

void
SetAssocCache::fatalAlreadyPresent(std::uint64_t la)
{
    BDS_FATAL("inserting line already present: 0x" << std::hex << la);
}

void
SetAssocCache::setState(std::uint64_t addr, CoherenceState state)
{
    std::uint64_t la = lineAddr(addr);
    std::uint64_t base = setBase(la);
    int w = findWay(base, la);
    if (w < 0)
        BDS_FATAL("setState on absent line 0x" << std::hex << la);
    if (state == CoherenceState::Invalid)
        BDS_FATAL("use invalidate() to drop a line");
    states_[base + static_cast<std::uint64_t>(w)] = state;
}

void
SetAssocCache::setStateDirty(std::uint64_t addr, CoherenceState state)
{
    std::uint64_t la = lineAddr(addr);
    std::uint64_t base = setBase(la);
    int w = findWay(base, la);
    if (w < 0)
        BDS_FATAL("setStateDirty on absent line 0x" << std::hex << la);
    if (state == CoherenceState::Invalid)
        BDS_FATAL("use invalidate() to drop a line");
    std::uint64_t i = base + static_cast<std::uint64_t>(w);
    states_[i] = state;
    flags_[i] |= kDirty;
}

void
SetAssocCache::setDirty(std::uint64_t addr)
{
    std::uint64_t la = lineAddr(addr);
    std::uint64_t base = setBase(la);
    int w = findWay(base, la);
    if (w < 0)
        BDS_FATAL("setDirty on absent line 0x" << std::hex << la);
    flags_[base + static_cast<std::uint64_t>(w)] |= kDirty;
}

void
SetAssocCache::markShared(std::uint64_t addr)
{
    std::uint64_t la = lineAddr(addr);
    std::uint64_t base = setBase(la);
    int w = findWay(base, la);
    if (w < 0)
        BDS_FATAL("markShared on absent line 0x" << std::hex << la);
    flags_[base + static_cast<std::uint64_t>(w)] |= kSharedEver;
}

bool
SetAssocCache::isMarkedShared(std::uint64_t addr) const
{
    std::uint64_t la = lineAddr(addr);
    std::uint64_t base = setBase(la);
    int w = findWay(base, la);
    if (w < 0)
        return false;
    return (flags_[base + static_cast<std::uint64_t>(w)] & kSharedEver)
        != 0;
}

void
SetAssocCache::forEachLine(
    const std::function<void(std::uint64_t, CoherenceState, bool)> &fn)
    const
{
    for (std::size_t i = 0; i < tags_.size(); ++i)
        if (tags_[i] != kInvalidTag)
            fn(tags_[i], states_[i], (flags_[i] & kDirty) != 0);
}

std::uint64_t
SetAssocCache::validLines() const
{
    std::uint64_t n = 0;
    for (std::uint64_t t : tags_)
        if (t != kInvalidTag)
            ++n;
    return n;
}

void
SetAssocCache::saveState(StateSink &sink) const
{
    sink.section("CACH");
    // Geometry guard: a payload must only restore into a cache of
    // the exact shape it was saved from.
    sink.u64(cfg_.sizeBytes);
    sink.u64(cfg_.assoc);
    sink.u64(cfg_.lineBytes);
    sink.u64(tick_);
    const std::uint64_t valid = validLines();
    sink.u64(valid);
    RecordWriter rec = sink.records(valid, kLineRecordBytes);
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        if (tags_[i] == kInvalidTag)
            continue;
        rec.u64(i);
        rec.u64(tags_[i]);
        rec.u64(lru_[i]);
        rec.u8(static_cast<std::uint8_t>(states_[i]));
        rec.u8(flags_[i]);
    }
}

void
SetAssocCache::loadState(StateSource &src)
{
    src.section("CACH");
    src.check("cache.size_bytes", cfg_.sizeBytes);
    src.check("cache.assoc", cfg_.assoc);
    src.check("cache.line_bytes", cfg_.lineBytes);
    tick_ = src.u64();
    std::uint64_t valid = src.u64();
    if (valid > tags_.size())
        BDS_RAISE(ErrorCode::Io,
                  "cache state declares " << valid
                      << " valid lines but the cache has only "
                      << tags_.size() << " slots (corrupt payload)");
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(lru_.begin(), lru_.end(), 0);
    std::fill(states_.begin(), states_.end(), CoherenceState::Invalid);
    std::fill(flags_.begin(), flags_.end(), 0);
    RecordReader rec = src.records(valid, kLineRecordBytes, "cache line");
    for (std::uint64_t n = 0; n < valid; ++n) {
        std::uint64_t slot = rec.u64();
        if (slot >= tags_.size())
            BDS_RAISE(ErrorCode::Io,
                      "cache state names slot " << slot
                          << " outside the " << tags_.size()
                          << "-slot array (corrupt payload)");
        tags_[slot] = rec.u64();
        lru_[slot] = rec.u64();
        std::uint8_t state = rec.u8();
        if (state > static_cast<std::uint8_t>(CoherenceState::Modified))
            BDS_RAISE(ErrorCode::Io,
                      "cache state holds invalid coherence value "
                          << unsigned(state) << " (corrupt payload)");
        states_[slot] = static_cast<CoherenceState>(state);
        flags_[slot] = rec.u8();
    }
}

} // namespace bds
