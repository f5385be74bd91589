/**
 * @file
 * The StateSink/StateSource visitor contract: bitwise round trips of
 * every field type, and a typed Error(Io) on every structural
 * violation — underflow, wrong section tag, geometry-guard mismatch,
 * trailing bytes. Corrupt state payloads must never be UB.
 */

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/state.h"
#include "fault/error.h"
#include "uarch/branch.h"
#include "uarch/cache.h"
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
 * One bulk section under test: a warm structure's payload, where its
 * record run sits, and how to restore a payload into a fresh
 * structure of the same geometry.
 */
struct BulkSection
{
    const char *name;
    std::string payload;
    std::size_t countOffset;   ///< u64 record count; npos = geometry
    std::size_t recordsOffset; ///< first record byte
    std::size_t stride;
    std::uint64_t records;
    std::uint64_t slots;       ///< slot count (slot field bound)
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

    const CacheConfig cc{4096, 4, 64}; // 64 slots
    SetAssocCache cache(cc);
    const CoherenceState states[] = {CoherenceState::Shared,
                                     CoherenceState::Exclusive,
                                     CoherenceState::Modified};
    for (std::uint64_t i = 0; i < 40; ++i)
        cache.insert(i * 64 * 7, states[i % 3], i % 4 == 0);
    for (std::uint64_t i = 0; i < 40; i += 3)
        cache.access(i * 64 * 7);
    cache.markShared(5 * 64 * 7);
    StateSink cs;
    cache.saveState(cs);
    const std::uint64_t lines = cache.validLines();
    out.push_back({"cache", cs.take(), 36, 44, 26, lines, 64,
                   reloader<SetAssocCache>(cc)});

    const TlbConfig tc{64, 4};
    TlbArray tlb(tc);
    for (std::uint64_t p = 0; p < 30; ++p)
        tlb.insert(p * 13 + 1);
    for (std::uint64_t p = 0; p < 30; p += 4)
        tlb.access(p * 13 + 1);
    StateSink ts;
    tlb.saveState(ts);
    out.push_back({"tlb", ts.take(), 28, 36, 24, 30, 64,
                   reloader<TlbArray>(tc)});

    GshareBranchPredictor bp(4); // 16 counters
    for (std::uint64_t ip = 0; ip < 64; ++ip)
        bp.predictAndTrain(ip * 4, ip % 3 != 0);
    StateSink bs;
    bp.saveState(bs);
    out.push_back({"gshare", bs.take(), std::string::npos, 16, 1, 16,
                   16, reloader<GshareBranchPredictor>(4u)});
    return out;
}

TEST(StructureState, SaveLoadSaveIsByteIdentical)
{
    for (const BulkSection &b : bulkSections()) {
        // The fixture's offsets pin the record layout: the run is
        // the tail of the section, `records` records of `stride`.
        ASSERT_EQ(b.payload.size(),
                  b.recordsOffset + b.records * b.stride)
            << b.name;
        if (b.countOffset != std::string::npos) {
            ASSERT_EQ(bds::loadLe64(b.payload.data() + b.countOffset),
                      b.records)
                << b.name;
        }
        EXPECT_EQ(b.reload(b.payload), b.payload) << b.name;
    }
}

TEST(StructureState, CorruptBulkSectionIsTypedIo)
{
    const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    for (const BulkSection &b : bulkSections()) {
        auto code = [&](const std::string &payload) {
            return raisedCode([&] { b.reload(payload); });
        };
        ASSERT_EQ(code(b.payload), ErrorCode::None) << b.name;

        // Truncation at every record boundary and inside every record.
        for (std::uint64_t r = 0; r < b.records; ++r) {
            const std::size_t at = b.recordsOffset + r * b.stride;
            EXPECT_EQ(code(b.payload.substr(0, at)), ErrorCode::Io)
                << b.name << " cut before record " << r;
            if (b.stride > 1) {
                EXPECT_EQ(code(b.payload.substr(0, at + b.stride / 2)),
                          ErrorCode::Io)
                    << b.name << " cut inside record " << r;
            }
        }

        // Declared counts above the slot count, including ones whose
        // byte length overflows size_t.
        if (b.countOffset != std::string::npos) {
            for (std::uint64_t count :
                 {b.slots + 1, kMax, kMax / b.stride + 1}) {
                std::string bad = b.payload;
                bds::storeLe64(bad.data() + b.countOffset, count);
                EXPECT_EQ(code(bad), ErrorCode::Io)
                    << b.name << " count " << count;
            }
            // A slot index at or past the slot count.
            std::string bad = b.payload;
            bds::storeLe64(bad.data() + b.recordsOffset, b.slots);
            EXPECT_EQ(code(bad), ErrorCode::Io) << b.name << " slot";
        }
    }

    const std::vector<BulkSection> all = bulkSections();
    // Cache: a coherence value past Modified (record byte 24).
    {
        const BulkSection &c = all[0];
        std::string bad = c.payload;
        bad[c.recordsOffset + 24] =
            static_cast<char>(CoherenceState::Modified) + 1;
        EXPECT_EQ(raisedCode([&] { c.reload(bad); }), ErrorCode::Io);
    }
    // Gshare: a 2-bit counter holding 4.
    {
        const BulkSection &g = all[2];
        std::string bad = g.payload;
        bad[g.recordsOffset + 7] = 4;
        EXPECT_EQ(raisedCode([&] { g.reload(bad); }), ErrorCode::Io);
    }
}

} // namespace
