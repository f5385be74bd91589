/**
 * @file
 * The StateSink/StateSource visitor contract: bitwise round trips of
 * every field type, and a typed Error(Io) on every structural
 * violation — underflow, wrong section tag, geometry-guard mismatch,
 * trailing bytes. Corrupt state payloads must never be UB.
 */

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/state.h"
#include "common/rng.h"
#include "fault/error.h"
#include "uarch/branch.h"
#include "uarch/cache.h"
#include "uarch/system.h"
#include "uarch/tlb.h"

namespace {

using bds::CacheConfig;
using bds::CoherenceState;
using bds::Error;
using bds::ErrorCode;
using bds::GshareBranchPredictor;
using bds::RecordReader;
using bds::RecordWriter;
using bds::SetAssocCache;
using bds::StateSink;
using bds::StateSource;
using bds::TlbArray;
using bds::TlbConfig;

/** Run `body` and return the typed code it raised (None if clean). */
template <typename Fn>
ErrorCode
raisedCode(Fn &&body)
{
    try {
        body();
    } catch (const Error &e) {
        return e.code();
    }
    return ErrorCode::None;
}

TEST(StateVisitor, EveryFieldTypeRoundTripsBitwise)
{
    StateSink sink;
    sink.section("TEST");
    sink.u8(0xab);
    sink.u32(0xdeadbeefu);
    sink.u64(0x0123456789abcdefull);
    sink.f64(0.1); // not exactly representable: bit pattern must hold
    sink.f64(-0.0);
    sink.f64(std::numeric_limits<double>::denorm_min());
    sink.f64(std::numeric_limits<double>::infinity());
    sink.str("H-Sort");
    sink.str(std::string("\0with\0nuls", 10));
    RecordWriter w = sink.records(2, 9);
    for (std::uint64_t r = 0; r < 2; ++r) {
        w.u64(0xfedcba9876543210ull + r);
        w.u8(static_cast<std::uint8_t>(0x80 + r));
    }

    StateSource src(sink.bytes(), "roundtrip");
    src.section("TEST");
    EXPECT_EQ(src.u8(), 0xab);
    EXPECT_EQ(src.u32(), 0xdeadbeefu);
    EXPECT_EQ(src.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(src.f64(), 0.1);
    const double neg_zero = src.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(src.f64(), std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(src.f64(), std::numeric_limits<double>::infinity());
    EXPECT_EQ(src.str(), "H-Sort");
    EXPECT_EQ(src.str(), std::string("\0with\0nuls", 10));
    RecordReader r = src.records(2, 9, "pair");
    for (std::uint64_t k = 0; k < 2; ++k) {
        EXPECT_EQ(r.u64(), 0xfedcba9876543210ull + k);
        EXPECT_EQ(r.u8(), 0x80 + k);
    }
    EXPECT_EQ(src.remaining(), 0u);
    EXPECT_NO_THROW(src.finish());
}

TEST(StateVisitor, CheckGuardsMatchAndMismatch)
{
    StateSink sink;
    sink.section("GEOM");
    sink.u64(64); // a geometry field, e.g. a line size

    StateSource ok(sink.bytes(), "guard-ok");
    ok.section("GEOM");
    EXPECT_NO_THROW(ok.check("line_size", 64));

    StateSource bad(sink.bytes(), "guard-bad");
    bad.section("GEOM");
    EXPECT_EQ(raisedCode([&] { bad.check("line_size", 128); }),
              ErrorCode::Io);
}

TEST(StateVisitor, WrongSectionTagIsTypedIo)
{
    StateSink sink;
    sink.section("CACH");
    const std::string payload = sink.bytes();
    StateSource src(payload, "wrong-tag");
    EXPECT_EQ(raisedCode([&] { src.section("TLBA"); }),
              ErrorCode::Io);
}

TEST(StateVisitor, UnderflowIsTypedIoNeverUB)
{
    StateSink sink;
    sink.u32(7);
    const std::string payload = sink.bytes();

    StateSource ints(payload, "underflow");
    ints.u32();
    EXPECT_EQ(raisedCode([&] { ints.u32(); }), ErrorCode::Io);

    // A length-prefixed string whose length outruns the payload.
    StateSink liar;
    liar.u64(1u << 20); // claims a megabyte follows
    const std::string lying = liar.bytes();
    StateSource str(lying, "lying-length");
    EXPECT_EQ(raisedCode([&] { str.str(); }), ErrorCode::Io);

    // An empty payload fails immediately, including on sections.
    const std::string empty;
    StateSource none(empty, "empty");
    EXPECT_EQ(raisedCode([&] { none.section("CACH"); }),
              ErrorCode::Io);

    // A record run one byte longer than what is left, and counts
    // whose byte length would wrap size_t: all typed, nothing read.
    const std::string runs(26 * 3, 'r');
    for (std::uint64_t count :
         {std::uint64_t(4), std::numeric_limits<std::uint64_t>::max(),
          std::numeric_limits<std::uint64_t>::max() / 26 + 1}) {
        StateSource rec(runs, "record-overrun");
        EXPECT_EQ(raisedCode([&] { rec.records(count, 26, "line"); }),
                  ErrorCode::Io)
            << count;
        EXPECT_EQ(rec.remaining(), runs.size());
    }
    StateSource exact(runs, "record-exact");
    EXPECT_NO_THROW(exact.records(3, 26, "line"));
    EXPECT_NO_THROW(exact.finish());
}

TEST(StateVisitor, TrailingBytesFailFinish)
{
    StateSink sink;
    sink.u32(1);
    sink.u32(2);
    const std::string payload = sink.bytes();
    StateSource src(payload, "trailing");
    src.u32();
    EXPECT_EQ(raisedCode([&] { src.finish(); }), ErrorCode::Io);
}

/**
 * One structure section under test: a warm structure's payload, the
 * offset where its contents start (after the section tag, the
 * geometry guards and the LRU clock), and how to restore a payload
 * into a fresh structure of the same geometry.
 */
struct BulkSection
{
    const char *name;
    std::string payload;
    std::size_t bodyOffset; ///< first byte after the fixed header
    std::function<std::string(const std::string &)> reload;
};

/** Restore into a fresh structure, verify, and re-save. */
template <typename T, typename... Args>
std::function<std::string(const std::string &)>
reloader(Args... args)
{
    return [=](const std::string &payload) {
        T fresh(args...);
        StateSource src(payload, "bulk section");
        fresh.loadState(src);
        src.finish();
        StateSink again;
        fresh.saveState(again);
        return again.take();
    };
}

/** Warm cache, TLB and gshare sections with partly filled arrays. */
std::vector<BulkSection>
bulkSections()
{
    std::vector<BulkSection> out;

    const CacheConfig cc{4096, 4, 64}; // 16 sets of 4 ways
    SetAssocCache cache(cc);
    const CoherenceState states[] = {CoherenceState::Shared,
                                     CoherenceState::Exclusive,
                                     CoherenceState::Modified};
    for (std::uint64_t i = 0; i < 40; ++i)
        cache.insert(i * 64 * 7, states[i % 3], i % 4 == 0);
    for (std::uint64_t i = 0; i < 40; i += 3)
        cache.access(i * 64 * 7);
    cache.markShared(5 * 64 * 7);
    cache.invalidate(9 * 64 * 7); // a hole inside a set
    StateSink cs;
    cache.saveState(cs);
    // The tag, the three geometry guards, the clock, the tag width.
    out.push_back({"cache", cs.take(), 4 + 4 * 8 + 1,
                   reloader<SetAssocCache>(cc)});

    const TlbConfig tc{64, 4};
    TlbArray tlb(tc);
    for (std::uint64_t p = 0; p < 30; ++p)
        tlb.insert(p * 13 + 1);
    for (std::uint64_t p = 0; p < 30; p += 4)
        tlb.access(p * 13 + 1);
    StateSink ts;
    tlb.saveState(ts);
    out.push_back({"tlb", ts.take(), 4 + 3 * 8 + 1,
                   reloader<TlbArray>(tc)});

    GshareBranchPredictor bp(4); // 16 counters
    for (std::uint64_t ip = 0; ip < 64; ++ip)
        bp.predictAndTrain(ip * 4, ip % 3 != 0);
    StateSink bs;
    bp.saveState(bs);
    out.push_back({"gshare", bs.take(), 4 + 8 + 4,
                   reloader<GshareBranchPredictor>(4u)});
    return out;
}

TEST(StructureState, SaveLoadSaveIsByteIdentical)
{
    const std::vector<BulkSection> all = bulkSections();
    for (const BulkSection &b : all)
        EXPECT_EQ(b.reload(b.payload), b.payload) << b.name;
    // The dense encoding: 16 one-byte bitmaps, then a one-byte tag
    // (every tag / 16 is below 256 here, so the width is 1), a rank
    // and a state/flags byte per cache line (39 of them); a tag and a
    // rank per TLB entry; four 2-bit counters per gshare byte.
    EXPECT_EQ(all[0].payload.size(), all[0].bodyOffset + 16 + 39 * 3);
    EXPECT_EQ(all[1].payload.size(), all[1].bodyOffset + 16 + 30 * 2);
    EXPECT_EQ(all[2].payload.size(), all[2].bodyOffset + 16 / 4);
}

TEST(StructureState, CorruptBulkSectionIsTypedIo)
{
    for (const BulkSection &b : bulkSections()) {
        auto code = [&](const std::string &payload) {
            return raisedCode([&] { b.reload(payload); });
        };
        ASSERT_EQ(code(b.payload), ErrorCode::None) << b.name;
        // Truncation anywhere in the contents: every byte is needed.
        for (std::size_t at = b.bodyOffset; at < b.payload.size(); ++at)
            EXPECT_EQ(code(b.payload.substr(0, at)), ErrorCode::Io)
                << b.name << " cut at " << at;
    }

    const std::vector<BulkSection> all = bulkSections();
    auto set = [](std::string p, std::size_t at, char v) {
        p[at] = v;
        return p;
    };
    const BulkSection &c = all[0];
    const std::size_t width = c.bodyOffset - 1; // the tag width byte
    const std::size_t map = c.bodyOffset;       // set 0's bitmap
    ASSERT_EQ(c.payload[width], 1);
    ASSERT_NE(c.payload[map], 0);
    const std::size_t tag = map + 16; // set 0's first line
    const std::size_t rank = tag + 1;
    const std::size_t flags = rank + 1;
    std::string no_clock = c.payload;
    bds::storeLe64(no_clock.data() + 4 + 3 * 8, 0);
    const std::vector<std::pair<const char *, std::string>> bad = {
        // A valid bit for way 4 of a 4-way set.
        {"bitmap", set(c.payload, map, static_cast<char>(c.payload[map] | 0x10))},
        // A rank equal to the set's line count.
        {"rank", set(c.payload, rank,
                     static_cast<char>(std::popcount(
                         static_cast<unsigned char>(c.payload[map]))))},
        // State/flags bits above the shared flag.
        {"flags", set(c.payload, flags, 0x10)},
        // Tag widths outside 1-8 bytes.
        {"width 0", set(c.payload, width, 0)},
        {"width 9", set(c.payload, width, 9)},
        // Lines with an LRU clock that has not ticked.
        {"clock", no_clock},
    };
    for (const auto &[name, payload] : bad)
        EXPECT_EQ(raisedCode([&] { c.reload(payload); }), ErrorCode::Io)
            << name;

    // A tag whose line address overflows 64 bits: byte lines put a
    // line near the top of the address space, so the tags take 8
    // bytes, and all-ones is out of range.
    const CacheConfig bytes{64, 4, 1};
    SetAssocCache top(bytes);
    top.insert(1ULL << 63, CoherenceState::Shared);
    StateSink tops;
    top.saveState(tops);
    std::string huge = tops.take();
    const std::size_t line = 4 + 4 * 8 + 1 + 16;
    ASSERT_EQ(huge[4 + 4 * 8], 8);
    ASSERT_EQ(huge.size(), line + 8 + 1 + 1);
    huge.replace(line, 8, std::string(8, '\xff'));
    EXPECT_EQ(raisedCode([&] { reloader<SetAssocCache>(bytes)(huge); }),
              ErrorCode::Io);

    // Gshare: bits past the last counter of a two-counter table.
    GshareBranchPredictor tiny(1);
    StateSink ts;
    tiny.saveState(ts);
    std::string bits = ts.take();
    bits.back() = static_cast<char>(bits.back() | 0x10);
    EXPECT_EQ(raisedCode([&] {
                  reloader<GshareBranchPredictor>(1u)(bits);
              }),
              ErrorCode::Io);
}

/** Run one cache operation; fold what it did into `sum`. */
void
cacheStep(SetAssocCache &c, bds::Pcg32 &rng, std::uint64_t lines,
          std::uint64_t &sum)
{
    const std::uint64_t addr =
        (rng.nextBounded(static_cast<std::uint32_t>(lines))) * 64 + 8;
    const unsigned what = rng.nextBounded(16);
    if (what == 0) {
        sum = sum * 31 + c.invalidate(addr);
        return;
    }
    if (what == 1) {
        sum = sum * 31 + c.markSharedIfPresent(addr, true);
        return;
    }
    const bds::CacheLookup hit = c.access(addr);
    sum = sum * 31 + hit.hit;
    if (!hit.hit) {
        const bds::Eviction ev = c.insert(
            addr, what % 2 ? CoherenceState::Exclusive
                           : CoherenceState::Modified,
            what % 3 == 0);
        sum = sum * 31 + (ev.valid ? ev.lineAddr * 2 + ev.dirty : 7);
    }
}

TEST(StructureState, SaveLoadContinueEqualsUninterrupted)
{
    // The LRU ranks a payload keeps instead of stamps must pick every
    // later victim the stamps would: a restored structure runs on in
    // lockstep with the one it was saved from, in every outcome and
    // in its next payload's bytes.
    const struct
    {
        const char *name;
        CacheConfig cfg;
        SetAssocCache::SetMapKind kind;
    } caches[] = {
        {"pow2", {32 * 1024, 8, 64}, SetAssocCache::SetMapKind::Pow2},
        {"factor3", {192 * 4 * 64, 4, 64},
         SetAssocCache::SetMapKind::Factor3},
        {"modulo", {80 * 4 * 64, 4, 64},
         SetAssocCache::SetMapKind::Modulo},
        {"direct-mapped", {4096, 1, 64}, SetAssocCache::SetMapKind::Pow2},
    };
    for (const auto &t : caches) {
        SCOPED_TRACE(t.name);
        SetAssocCache live(t.cfg);
        ASSERT_EQ(live.setMapKind(), t.kind);
        const std::uint64_t lines = 3 * t.cfg.sizeBytes / 64;
        bds::Pcg32 rng(17);
        std::uint64_t warm = 0;
        for (int i = 0; i < 20000; ++i)
            cacheStep(live, rng, lines, warm);
        StateSink snap;
        live.saveState(snap);
        SetAssocCache restored(t.cfg);
        StateSource src(snap.bytes(), t.name);
        restored.loadState(src);
        src.finish();

        bds::Pcg32 rng_a(99), rng_b(99);
        std::uint64_t a = 0, b = 0;
        for (int i = 0; i < 20000; ++i) {
            cacheStep(live, rng_a, lines, a);
            cacheStep(restored, rng_b, lines, b);
        }
        EXPECT_EQ(a, b);
        StateSink end_a, end_b;
        live.saveState(end_a);
        restored.saveState(end_b);
        EXPECT_EQ(end_a.bytes(), end_b.bytes());
    }

    // Both TLB levels, through the two-level translate path.
    const TlbConfig l1{64, 4}, stlb{512, 4};
    bds::TwoLevelTlb live(l1, l1, stlb);
    bds::Pcg32 rng(5);
    auto step = [](bds::TwoLevelTlb &t, bds::Pcg32 &r) {
        const std::uint64_t addr = std::uint64_t(r.nextBounded(2048)) << 12;
        return static_cast<unsigned>(r.nextBounded(2) ? t.translateData(addr)
                                                      : t.translateCode(addr));
    };
    for (int i = 0; i < 20000; ++i)
        step(live, rng);
    StateSink snap;
    live.saveState(snap);
    bds::TwoLevelTlb restored(l1, l1, stlb);
    StateSource src(snap.bytes(), "tlb");
    restored.loadState(src);
    src.finish();
    bds::Pcg32 rng_a(8), rng_b(8);
    std::uint64_t outcomes[2][3] = {};
    for (int i = 0; i < 20000; ++i) {
        ++outcomes[0][step(live, rng_a)];
        ++outcomes[1][step(restored, rng_b)];
    }
    for (int o = 0; o < 3; ++o)
        EXPECT_EQ(outcomes[0][o], outcomes[1][o]) << "outcome " << o;
    EXPECT_GT(outcomes[0][1], 0u); // STLB hits happened
    StateSink end_a, end_b;
    live.saveState(end_a);
    restored.saveState(end_b);
    EXPECT_EQ(end_a.bytes(), end_b.bytes());
}

/**
 * Feed `n` random ops to a 4-core model: fetches over 256 KB of code,
 * loads and stores over 8 MB of data (a quarter of them on one hot
 * page), branches, and now and then a DMA fill.
 */
void
runOps(bds::SystemModel &sys, bds::Pcg32 &rng, int n)
{
    for (int i = 0; i < n; ++i) {
        bds::MicroOp op;
        const unsigned cls = rng.nextBounded(8);
        op.cls = cls < 3   ? bds::OpClass::Load
                 : cls < 5 ? bds::OpClass::Store
                 : cls < 6 ? bds::OpClass::Branch
                           : bds::OpClass::IntAlu;
        op.ip = 0x400000 + std::uint64_t(rng.nextBounded(1 << 16)) * 4;
        op.addr = 0x10000000 + (rng.nextBounded(4) == 0
                                    ? rng.nextBounded(4096)
                                    : std::uint64_t(rng.nextBounded(1 << 20)) * 8);
        op.taken = rng.nextBounded(2) == 0;
        sys.consume(rng.nextBounded(4), op);
        if (i % 4096 == 0)
            sys.dmaFill(0x10000000 + std::uint64_t(rng.nextBounded(1 << 11)) * 4096,
                        8192);
    }
}

TEST(StructureState, RestoreAfterRunningOnEqualsUninterrupted)
{
    // The caches and TLBs check the slot of their last hit before a
    // set scan. That hint is not state: a model saved, run on (which
    // moves every hint), restored in place and continued must match
    // a model that was never interrupted, in its counters and in its
    // next payload's bytes.
    const bds::NodeConfig cfg = bds::NodeConfig::defaultSim();
    ASSERT_EQ(cfg.numCores, 4u);
    bds::SystemModel live(cfg), straight(cfg);
    bds::Pcg32 warm_a(3), warm_b(3);
    runOps(live, warm_a, 200000);
    runOps(straight, warm_b, 200000);

    StateSink snap;
    live.saveState(snap);
    bds::Pcg32 detour(4);
    runOps(live, detour, 100000);
    StateSource src(snap.bytes(), "system");
    live.loadState(src);
    src.finish();

    bds::Pcg32 rng_a(5), rng_b(5);
    runOps(live, rng_a, 200000);
    runOps(straight, rng_b, 200000);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const auto a = live.coreCounters(c).toArray();
        const auto b = straight.coreCounters(c).toArray();
        EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof a), 0)
            << "core " << c;
    }
    EXPECT_GT(straight.aggregateCounters().l2Misses, 10000u);
    StateSink end_a, end_b;
    live.saveState(end_a);
    straight.saveState(end_b);
    EXPECT_EQ(end_a.bytes(), end_b.bytes());
}

} // namespace
