/** @file Tests for trace recording, serialization, and replay. */

#include <cstring>
#include <sstream>
#include <streambuf>
#include <string>

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/rng.h"
#include "fault/error.h"
#include "trace/recorder.h"
#include "trace/runtime.h"
#include "uarch/system.h"

#include "../mutator.h"

namespace {

using bds::AddressSpace;
using bds::CodeImage;
using bds::CountingSink;
using bds::ExecContext;
using bds::MicroOp;
using bds::NodeConfig;
using bds::Region;
using bds::SystemModel;
using bds::TraceRecorder;

TEST(Recorder, TeesToDownstreamSink)
{
    CountingSink downstream;
    TraceRecorder rec(&downstream);
    AddressSpace space;
    CodeImage user(space, Region::UserCode);
    ExecContext ctx(rec, 0, user.defineFunction(128));
    ctx.load(0x7f0000000000ULL);
    ctx.intOps(3);
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(downstream.total, 4u);
}

TEST(Recorder, ReplayReproducesTheStream)
{
    TraceRecorder rec;
    AddressSpace space;
    CodeImage user(space, Region::UserCode);
    ExecContext ctx(rec, 2, user.defineFunction(128));
    ctx.load(0x7f0000000040ULL);
    ctx.loadDependent(0x7f0000000080ULL);
    ctx.store(0x7f00000000c0ULL);
    ctx.branch(true);
    ctx.microcoded(3);

    CountingSink sink;
    rec.replay(sink);
    EXPECT_EQ(sink.total, 7u);
    EXPECT_EQ(sink.loads, 2u);
    EXPECT_EQ(sink.stores, 1u);
    EXPECT_EQ(sink.branches, 1u);
    EXPECT_EQ(sink.instructions, 5u);
    EXPECT_EQ(sink.maxCore, 2u);
}

TEST(Recorder, SaveLoadRoundTrip)
{
    TraceRecorder rec;
    AddressSpace space;
    CodeImage user(space, Region::UserCode);
    ExecContext ctx(rec, 1, user.defineFunction(128));
    ctx.load(0x7f0000000000ULL);
    ctx.branch(false);
    rec.recordDma(0xffff900000000000ULL, 4096);

    std::stringstream buf;
    rec.save(buf);
    TraceRecorder loaded = TraceRecorder::load(buf);
    EXPECT_EQ(loaded.size(), rec.size());

    CountingSink a, b;
    std::uint64_t dma_a = 0, dma_b = 0;
    rec.replay(a, [&](std::uint64_t, std::uint64_t n) { dma_a = n; });
    loaded.replay(b, [&](std::uint64_t, std::uint64_t n) { dma_b = n; });
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(dma_a, 4096u);
    EXPECT_EQ(dma_b, 4096u);
}

TEST(Recorder, LoadRejectsGarbage)
{
    std::stringstream buf("this is not a trace");
    EXPECT_THROW(TraceRecorder::load(buf), bds::FatalError);
    std::stringstream empty;
    EXPECT_THROW(TraceRecorder::load(empty), bds::FatalError);
}

/** A small saved trace to corrupt in the round-trip tests below. */
std::string
savedTraceBytes()
{
    TraceRecorder rec;
    AddressSpace space;
    CodeImage user(space, Region::UserCode);
    ExecContext ctx(rec, 0, user.defineFunction(128));
    for (int i = 0; i < 8; ++i) {
        ctx.load(0x7f0000000000ULL + i * 64);
        ctx.branch(i & 1);
    }
    rec.recordDma(0xffff900000000000ULL, 4096);
    std::stringstream buf;
    rec.save(buf);
    return buf.str();
}

TEST(Recorder, LoadRejectsTruncatedStream)
{
    std::string bytes = savedTraceBytes();
    // Chop at every structurally interesting point: inside the
    // header, at the count field, and mid-entry.
    for (std::size_t cut : {std::size_t{4}, std::size_t{10},
                            std::size_t{16}, bytes.size() - 1,
                            bytes.size() - 7}) {
        std::stringstream buf(bytes.substr(0, cut));
        EXPECT_THROW(TraceRecorder::load(buf), bds::FatalError)
            << "load accepted a stream truncated to " << cut
            << " bytes";
    }
}

TEST(Recorder, LoadRejectsOversizedStream)
{
    std::string bytes = savedTraceBytes();
    // Whole extra entries and ragged trailing bytes must both fail:
    // a trace file holds exactly one trace.
    for (std::size_t extra : {std::size_t{1}, std::size_t{20}}) {
        std::stringstream buf(bytes + std::string(extra, '\x5a'));
        EXPECT_THROW(TraceRecorder::load(buf), bds::FatalError)
            << "load accepted " << extra << " trailing bytes";
    }
}

TEST(Recorder, LoadRejectsOverstatedCount)
{
    std::string bytes = savedTraceBytes();
    // The count field sits right after the 8-byte magic and 4-byte
    // version. Claim more entries than the payload holds.
    std::uint64_t huge = 1ULL << 40;
    bytes.replace(12, sizeof huge,
                  reinterpret_cast<const char *>(&huge), sizeof huge);
    std::stringstream buf(bytes);
    EXPECT_THROW(TraceRecorder::load(buf), bds::FatalError);
}

/**
 * A read-only streambuf over a byte string that cannot seek, like a
 * pipe or socket: tellg() on an istream over it returns -1.
 */
class PipeBuf : public std::streambuf
{
  public:
    explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes))
    {
        char *p = bytes_.data();
        setg(p, p, p + bytes_.size());
    }

  private:
    std::string bytes_;
};

TEST(Recorder, NonSeekableLoadRejectsBadCountsTyped)
{
    const std::string bytes = savedTraceBytes();
    {
        // Intact: the non-seekable path still loads a good trace.
        PipeBuf pipe(bytes);
        std::istream in(&pipe);
        ASSERT_EQ(in.tellg(), std::istream::pos_type(-1));
        EXPECT_EQ(TraceRecorder::load(in).size(), 17u);
    }
    // An inflated header count must fail typed (not as a
    // std::length_error out of the reserve), as must a truncated body.
    std::string inflated = bytes;
    std::uint64_t huge = 1ULL << 61;
    inflated.replace(12, sizeof huge,
                     reinterpret_cast<const char *>(&huge), sizeof huge);
    for (const std::string &b : {inflated, bytes.substr(0, 40)}) {
        PipeBuf pipe(b);
        std::istream in(&pipe);
        EXPECT_THROW(TraceRecorder::load(in), bds::FatalError);
    }
}

TEST(Recorder, CorruptionRoundTrip)
{
    // The uncorrupted bytes still load fine after all that.
    std::stringstream buf(savedTraceBytes());
    TraceRecorder loaded = TraceRecorder::load(buf);
    // 8 iterations x (load + branch) plus the DMA entry.
    EXPECT_EQ(loaded.size(), 17u);
    CountingSink sink;
    std::uint64_t dma = 0;
    loaded.replay(sink, [&](std::uint64_t, std::uint64_t n) {
        dma = n;
    });
    EXPECT_EQ(sink.total, 16u);
    EXPECT_EQ(dma, 4096u);
}

/**
 * The headline property: replaying a recorded run into an
 * identically configured fresh SystemModel reproduces the counters
 * exactly.
 */
TEST(Recorder, ReplayIntoSameConfigIsExact)
{
    NodeConfig cfg = NodeConfig::defaultSim();
    TraceRecorder rec;
    bds::PmcCounters live;
    {
        SystemModel sys(cfg);
        sys.attachRecorder(&rec);
        AddressSpace space;
        CodeImage user(space, Region::UserCode);
        std::vector<bds::FunctionDesc> fns;
        for (int i = 0; i < 16; ++i)
            fns.push_back(user.defineFunction(192));
        ExecContext c0(sys, 0, fns[0]);
        ExecContext c1(sys, 1, fns[1]);
        std::uint64_t buf = space.allocate(Region::Heap, 4 << 20);
        bds::Pcg32 rng(3);
        for (int i = 0; i < 20000; ++i) {
            ExecContext &ctx = (i & 1) ? c1 : c0;
            ctx.call(fns[rng.nextBounded(16)]);
            ctx.load(buf + (rng.next() % (4u << 20)) / 8 * 8);
            ctx.branch(rng.nextDouble() < 0.7);
            if (i % 5 == 0)
                ctx.store(buf + (rng.next() % (4u << 20)) / 8 * 8);
            ctx.ret();
            if (i % 4096 == 0)
                sys.dmaFill(buf + (rng.next() % (2u << 20)), 8192);
        }
        live = sys.aggregateCounters();
    }

    SystemModel replayed(cfg);
    rec.replay(replayed, [&](std::uint64_t a, std::uint64_t n) {
        replayed.dmaFill(a, n);
    });
    bds::PmcCounters again = replayed.aggregateCounters();

    EXPECT_EQ(live.instructions, again.instructions);
    EXPECT_EQ(live.uops, again.uops);
    EXPECT_DOUBLE_EQ(live.cycles, again.cycles);
    EXPECT_EQ(live.l1iMisses, again.l1iMisses);
    EXPECT_EQ(live.l2Misses, again.l2Misses);
    EXPECT_EQ(live.l3Misses, again.l3Misses);
    EXPECT_EQ(live.loadLlcMiss, again.loadLlcMiss);
    EXPECT_EQ(live.dtlbWalks, again.dtlbWalks);
    EXPECT_EQ(live.branchesMispredicted, again.branchesMispredicted);
    EXPECT_EQ(live.snoopHitM, again.snoopHitM);
    EXPECT_EQ(live.offcoreWb, again.offcoreWb);
}

TEST(Recorder, EncodeDecodeRoundTripsAndChecksEveryEvent)
{
    TraceRecorder rec;
    MicroOp op;
    op.cls = bds::OpClass::SseAlu;
    op.mode = bds::Mode::Kernel;
    op.ip = 0x401000;
    op.taken = true;
    rec.consume(3, op);
    rec.recordDma(0x2000, 128);
    const std::string bytes = rec.encode();
    ASSERT_EQ(bytes.size(), 2 * TraceRecorder::kEventBytes);
    EXPECT_EQ(TraceRecorder::decode(bytes, 4, "slice").encode(), bytes);

    // Byte 16 of an event is its core, 17 the class, 18 the mode and
    // 19 the flags; each out-of-range value is a typed Io error.
    auto code = [](const std::string &b, unsigned cores) {
        try {
            TraceRecorder::decode(b, cores, "slice");
        } catch (const bds::Error &e) {
            return e.code();
        }
        return bds::ErrorCode::None;
    };
    EXPECT_EQ(code(bytes, 3), bds::ErrorCode::Io); // core 3 of 3
    for (const auto &[at, value] :
         {std::pair<std::size_t, char>{17, 6}, {18, 2}, {19, 16}}) {
        std::string bad = bytes;
        bad[at] = value;
        EXPECT_EQ(code(bad, 4), bds::ErrorCode::Io) << "byte " << at;
    }
    EXPECT_EQ(code(bytes.substr(0, 30), 4), bds::ErrorCode::Io);
    EXPECT_EQ(code("", 4), bds::ErrorCode::None);
}

TEST(TraceRecorderMutation, MutantsLoadOrRaiseTypedIo)
{
    // Seeded mutants of a saved trace: byte flips, truncation,
    // splices and an inflated event count. Each loads or raises
    // Error(Io) — never a crash, an untyped error or an allocation
    // sized by the damaged count.
    const std::string file = savedTraceBytes();
    bds::Mutator mut(0x74726163ULL);
    std::size_t loaded = 0, typed = 0;
    constexpr int kMutants = 2000;
    for (int i = 0; i < kMutants; ++i) {
        std::string bytes = file;
        const unsigned op = static_cast<unsigned>(mut.below(4));
        if (op < 3) {
            mut.mutate(bytes, op);
        } else {
            std::uint64_t count = 0;
            std::memcpy(&count, bytes.data() + 12, sizeof count);
            count = mut.inflated(count);
            std::memcpy(bytes.data() + 12, &count, sizeof count);
        }
        std::stringstream in(bytes);
        try {
            TraceRecorder::load(in);
            ++loaded;
        } catch (const bds::Error &e) {
            EXPECT_EQ(e.code(), bds::ErrorCode::Io) << "mutant " << i;
            ++typed;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << ": untyped " << e.what();
        }
    }
    EXPECT_EQ(loaded + typed, static_cast<std::size_t>(kMutants));
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(typed, kMutants / 2u);
}

/** Replaying into a bigger L3 must not increase LLC misses. */
TEST(Recorder, BiggerLlcNeverHurtsOnReplay)
{
    NodeConfig cfg = NodeConfig::defaultSim();
    TraceRecorder rec;
    {
        SystemModel sys(cfg);
        sys.attachRecorder(&rec);
        AddressSpace space;
        CodeImage user(space, Region::UserCode);
        ExecContext ctx(sys, 0, user.defineFunction(192));
        std::uint64_t buf = space.allocate(Region::Heap, 24 << 20);
        for (int pass = 0; pass < 2; ++pass)
            ctx.scan(buf, 24 << 20, 256, 1);
    }
    auto misses_at = [&](std::uint64_t l3_bytes) {
        NodeConfig c = cfg;
        c.l3.sizeBytes = l3_bytes;
        SystemModel sys(c);
        rec.replay(sys, [&](std::uint64_t a, std::uint64_t n) {
            sys.dmaFill(a, n);
        });
        return sys.aggregateCounters().l3Misses;
    };
    std::uint64_t small = misses_at(6ULL << 20);
    std::uint64_t big = misses_at(48ULL << 20);
    EXPECT_LT(big, small);
}

} // namespace
