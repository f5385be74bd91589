#include "uarch/cache.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "fault/error.h"
#include "uarch/ways.h"

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
    // One byte per line: bits 0-1 the coherence state, 2 dirty, 3
    // shared.
    std::vector<std::uint8_t> line(states_.size());
    for (std::size_t i = 0; i < line.size(); ++i)
        line[i] = static_cast<std::uint8_t>(
            static_cast<unsigned>(states_[i]) | unsigned(flags_[i]) << 2);
    saveWays(sink, tags_.data(), lru_.data(), line.data(), numSets_,
             cfg_.assoc, kInvalidTag,
             [&](std::uint64_t la) { return setQuotient(la); });
}

void
SetAssocCache::loadState(StateSource &src)
{
    src.section("CACH");
    src.check("cache.size_bytes", cfg_.sizeBytes);
    src.check("cache.assoc", cfg_.assoc);
    src.check("cache.line_bytes", cfg_.lineBytes);
    tick_ = src.u64();
    CoherenceState *states = states_.data();
    std::uint8_t *flags = flags_.data();
    const std::size_t slots = states_.size();
    const std::uint8_t line_or = loadWays(
        src, tags_.data(), lru_.data(), numSets_, cfg_.assoc, kInvalidTag,
        tick_, 1,
        [=] {
            std::memset(states, 0, slots);
            std::memset(flags, 0, slots);
        },
        // Bits 0-1 the coherence state, 2 dirty, 3 shared.
        [=](std::uint64_t i, std::uint8_t b) {
            states[i] = static_cast<CoherenceState>(b & 3);
            flags[i] = static_cast<std::uint8_t>(b >> 2);
        });
    if (line_or > 15)
        src.fail("a cache line state byte sets bits above the shared flag");
}

} // namespace bds
