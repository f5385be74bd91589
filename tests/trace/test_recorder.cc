/** @file Tests for trace recording, slice encoding, and replay. */

#include <string>
#include <utility>
#include <vector>

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

/** A small trace's encode() bytes, to corrupt in the fuzz below. */
std::string
encodedTraceBytes()
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
    return rec.encode();
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
    // SseAlu | kernel | taken | newInstruction | escape, the escape
    // varint core 3 << 1, the ip delta; then the DMA byte 6 and the
    // deltas of its address and size.
    ASSERT_EQ(bytes, std::string("\xbd\x06\x80\xc0\x80\x04"
                                 "\x06\x80\x80\x01\x80\x02"));
    EXPECT_EQ(TraceRecorder::decode(bytes, 4, "slice").encode(), bytes);

    auto code = [](const std::string &b, unsigned cores) {
        try {
            TraceRecorder::decode(b, cores, "slice");
        } catch (const bds::Error &e) {
            return e.code();
        }
        return bds::ErrorCode::None;
    };
    EXPECT_EQ(code(bytes, 3), bds::ErrorCode::Io); // core 3 of 3
    auto with = [&](std::size_t at, char v) {
        std::string b = bytes;
        b[at] = v;
        return b;
    };
    const std::vector<std::pair<const char *, std::string>> bad = {
        {"class 7", with(0, '\xbf')},
        {"DMA byte with mode bit", with(6, '\x0e')},
        {"cut inside a varint", bytes.substr(0, 4)},
        {"cut before the DMA size", bytes.substr(0, 10)},
        {"overlong escape varint", std::string("\xbd\x86\x00", 3)
             + bytes.substr(2)},
        {"ip over 64 bits",
         std::string("\xbd\x06\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02")},
        {"escape to the current core", std::string("\x83\x00\x00", 3)},
        {"escaped addr on a load", std::string("\x80\x01\x00\x00", 4)},
        {"escaped zero addr", std::string("\x83\x01\x00\x00", 4)},
    };
    for (const auto &[name, b] : bad)
        EXPECT_EQ(code(b, 4), bds::ErrorCode::Io) << name;
    EXPECT_EQ(code("", 4), bds::ErrorCode::None);

    // A non-memory op with a nonzero addr round-trips through the
    // escape's addr bit; ops on one core after another stay exact.
    TraceRecorder odd;
    MicroOp alu;
    alu.addr = 0x1234;
    odd.consume(0, alu);
    odd.consume(1, op);
    alu.addr = 0;
    odd.consume(1, alu);
    const std::string odd_bytes = odd.encode();
    EXPECT_EQ(TraceRecorder::decode(odd_bytes, 2, "odd").encode(),
              odd_bytes);
}

TEST(TraceRecorderMutation, MutantsLoadOrRaiseTypedIo)
{
    // Seeded mutants of an encoded slice, as a checkpoint entry holds
    // it on disk: byte flips, truncation, splices and a byte set to a
    // random value. Each decodes or raises Error(Io) — never a crash
    // or an untyped error.
    const std::string file = encodedTraceBytes();
    bds::Mutator mut(0x74726163ULL);
    std::size_t loaded = 0, typed = 0;
    constexpr int kMutants = 2000;
    for (int i = 0; i < kMutants; ++i) {
        std::string bytes = file;
        const unsigned op = static_cast<unsigned>(mut.below(4));
        if (op < 3)
            mut.mutate(bytes, op);
        else
            bytes[mut.below(bytes.size())] =
                static_cast<char>(mut.below(256));
        try {
            TraceRecorder::decode(bytes, 4, "slice");
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
