/** @file Behavioral tests for the full SystemModel data path. */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/rng.h"
#include "sample/interval.h"
#include "trace/memlayout.h"
#include "trace/runtime.h"
#include "uarch/system.h"
#include "workloads/registry.h"

namespace {

using bds::AddressSpace;
using bds::CodeImage;
using bds::ExecContext;
using bds::FunctionDesc;
using bds::Mode;
using bds::NodeConfig;
using bds::PmcCounters;
using bds::Region;
using bds::SystemModel;

struct SystemFixture : public ::testing::Test
{
    NodeConfig cfg = NodeConfig::defaultSim();
    AddressSpace space;

    std::unique_ptr<SystemModel> sys;
    std::unique_ptr<CodeImage> user;

    void
    SetUp() override
    {
        sys = std::make_unique<SystemModel>(cfg);
        user = std::make_unique<CodeImage>(space, Region::UserCode);
    }

    FunctionDesc
    smallFn()
    {
        return user->defineFunction(256);
    }
};

TEST_F(SystemFixture, InstructionAndUopCounting)
{
    ExecContext ctx(*sys, 0, smallFn());
    ctx.intOps(10);
    ctx.microcoded(4);
    const PmcCounters &pmc = sys->coreCounters(0);
    EXPECT_EQ(pmc.instructions, 11u);
    EXPECT_EQ(pmc.uops, 14u);
    EXPECT_GT(pmc.cycles, 0.0);
}

TEST_F(SystemFixture, ModeAccounting)
{
    ExecContext ctx(*sys, 0, smallFn());
    ctx.intOps(6);
    ctx.setMode(Mode::Kernel);
    ctx.intOps(4);
    const PmcCounters &pmc = sys->coreCounters(0);
    EXPECT_EQ(pmc.kernelInstrs, 4u);
    EXPECT_EQ(pmc.userInstrs, 6u);
}

TEST_F(SystemFixture, TinyLoopIsCacheResident)
{
    ExecContext ctx(*sys, 0, smallFn());
    std::uint64_t buf = space.allocate(Region::Heap, 4096);
    for (int pass = 0; pass < 50; ++pass)
        ctx.scan(buf, 4096, 64, 1);
    const PmcCounters &pmc = sys->coreCounters(0);
    // After warmup the 4 KB buffer lives in L1D/L2.
    EXPECT_LT(static_cast<double>(pmc.loadLlcMiss), 70.0);
    EXPECT_GT(static_cast<double>(pmc.l1iHits),
              static_cast<double>(pmc.l1iMisses) * 50);
}

TEST_F(SystemFixture, HugeScanMissesLlc)
{
    ExecContext ctx(*sys, 0, smallFn());
    // 64 MB touched once: far beyond the 12 MB L3.
    std::uint64_t buf = space.allocate(Region::Heap, 64ULL << 20);
    ctx.scan(buf, 64ULL << 20, 256, 1);
    const PmcCounters &pmc = sys->coreCounters(0);
    EXPECT_GT(pmc.loadLlcMiss, 200000u);
    EXPECT_GT(pmc.resourceStallCycles, 0.0);
    EXPECT_GT(pmc.dtlbWalks, 10000u); // 16 K pages >> 512-entry STLB
}

TEST_F(SystemFixture, SequentialMissesOverlapPointerChaseDoesNot)
{
    // Sequential scan: every load is an independent miss.
    ExecContext seq(*sys, 0, smallFn());
    std::uint64_t buf_a = space.allocate(Region::Heap, 32ULL << 20);
    seq.scan(buf_a, 32ULL << 20, 64, 0);
    double mlp_seq = sys->coreCounters(0).mlpSamples
        ? sys->coreCounters(0).mlpSum / sys->coreCounters(0).mlpSamples
        : 0.0;

    // Pointer chase on another core: dependent misses serialize.
    ExecContext chase(*sys, 1, smallFn());
    std::uint64_t buf_b = space.allocate(Region::Heap, 32ULL << 20);
    bds::Pcg32 rng(5);
    std::uint64_t addr = buf_b;
    for (int i = 0; i < 200000; ++i) {
        chase.loadDependent(addr);
        addr = buf_b + (static_cast<std::uint64_t>(rng.next()) % (32ULL << 20))
            / 64 * 64;
    }
    double mlp_chase = sys->coreCounters(1).mlpSamples
        ? sys->coreCounters(1).mlpSum / sys->coreCounters(1).mlpSamples
        : 0.0;

    EXPECT_GT(mlp_seq, 2.0);
    EXPECT_NEAR(mlp_chase, 1.0, 0.2);
}

TEST_F(SystemFixture, LfbCatchesBackToBackSameLineMisses)
{
    ExecContext ctx(*sys, 0, smallFn());
    std::uint64_t buf = space.allocate(Region::Heap, 1 << 20);
    // Stride-8 scan: 8 loads per line; the first misses, the next
    // ones arrive while the fill is in flight.
    ctx.scan(buf, 1 << 20, 8, 0);
    const PmcCounters &pmc = sys->coreCounters(0);
    EXPECT_GT(pmc.loadHitLfb, pmc.loadLlcMiss);
}

TEST_F(SystemFixture, BigCodeFootprintStallsFrontend)
{
    // Small-footprint run on core 0.
    ExecContext small_ctx(*sys, 0, smallFn());
    for (int i = 0; i < 40000; ++i)
        small_ctx.intOps(1);

    // Large-footprint run on core 1: walk 256 functions of 4 KB.
    CodeImage fw(space, Region::FrameworkCode);
    std::vector<FunctionDesc> fns;
    for (int i = 0; i < 256; ++i)
        fns.push_back(fw.defineFunction(4096));
    ExecContext big_ctx(*sys, 1, fns[0]);
    for (int round = 0; round < 40; ++round) {
        for (const auto &fn : fns) {
            big_ctx.call(fn);
            big_ctx.intOps(24);
            big_ctx.ret();
        }
    }

    const PmcCounters &small_pmc = sys->coreCounters(0);
    const PmcCounters &big_pmc = sys->coreCounters(1);
    double small_l1i_mpki = 1000.0 * small_pmc.l1iMisses
        / small_pmc.instructions;
    double big_l1i_mpki = 1000.0 * big_pmc.l1iMisses
        / big_pmc.instructions;
    EXPECT_GT(big_l1i_mpki, 10 * small_l1i_mpki + 1.0);
    EXPECT_GT(big_pmc.fetchStallCycles / big_pmc.cycles,
              small_pmc.fetchStallCycles / small_pmc.cycles);
    EXPECT_GT(big_pmc.itlbWalks, small_pmc.itlbWalks);
}

TEST_F(SystemFixture, ProducerConsumerSharingCountsSnoops)
{
    std::uint64_t shared = space.allocate(Region::Heap, 1 << 16);

    ExecContext producer(*sys, 0, smallFn());
    ExecContext consumer(*sys, 1, smallFn());

    for (int round = 0; round < 20; ++round) {
        for (std::uint64_t off = 0; off < (1 << 16); off += 64)
            producer.store(shared + off);
        for (std::uint64_t off = 0; off < (1 << 16); off += 64)
            consumer.load(shared + off);
    }

    const PmcCounters &cons = sys->coreCounters(1);
    // Consumer loads find the producer's modified lines.
    EXPECT_GT(cons.snoopHitM, 1000u);
    EXPECT_GT(cons.loadHitSibling, 1000u);

    // Producer stores to lines the consumer shares trigger RFOs.
    const PmcCounters &prod = sys->coreCounters(0);
    EXPECT_GT(prod.offcoreRfo, 1000u);
}

TEST_F(SystemFixture, ReadSharingCountsHitE)
{
    std::uint64_t shared = space.allocate(Region::Heap, 1 << 14);
    ExecContext a(*sys, 0, smallFn());
    ExecContext b(*sys, 1, smallFn());

    // a reads (lines become Exclusive in a's L2), then b reads.
    for (std::uint64_t off = 0; off < (1 << 14); off += 64)
        a.load(shared + off);
    for (std::uint64_t off = 0; off < (1 << 14); off += 64)
        b.load(shared + off);

    EXPECT_GT(sys->coreCounters(1).snoopHitE, 200u);
}

TEST_F(SystemFixture, BranchCountersTrack)
{
    ExecContext ctx(*sys, 0, smallFn());
    bds::Pcg32 rng(9);
    for (int i = 0; i < 10000; ++i)
        ctx.branch(rng.nextDouble() < 0.5);
    const PmcCounters &pmc = sys->coreCounters(0);
    EXPECT_EQ(pmc.branchesRetired, 10000u);
    EXPECT_GT(pmc.branchesMispredicted, 2000u); // random: near half
    EXPECT_GT(pmc.branchesExecuted, pmc.branchesRetired);
}

TEST_F(SystemFixture, PredictableBranchesMispredictRarely)
{
    ExecContext ctx(*sys, 0, smallFn());
    for (int i = 0; i < 10000; ++i)
        ctx.branch(true);
    const PmcCounters &pmc = sys->coreCounters(0);
    EXPECT_LT(pmc.branchesMispredicted, 200u);
}

TEST_F(SystemFixture, ResetCountersKeepsWarmState)
{
    ExecContext ctx(*sys, 0, smallFn());
    std::uint64_t buf = space.allocate(Region::Heap, 1 << 16);
    ctx.scan(buf, 1 << 16, 64, 1);
    sys->resetCounters();
    EXPECT_EQ(sys->coreCounters(0).instructions, 0u);
    // Re-scan: the buffer is already cached, so LLC load misses stay 0.
    ctx.scan(buf, 1 << 16, 64, 1);
    EXPECT_EQ(sys->coreCounters(0).loadLlcMiss, 0u);
    EXPECT_GT(sys->coreCounters(0).instructions, 0u);
}

TEST_F(SystemFixture, AggregateSumsCores)
{
    ExecContext a(*sys, 0, smallFn());
    ExecContext b(*sys, 1, smallFn());
    a.intOps(10);
    b.intOps(20);
    PmcCounters total = sys->aggregateCounters();
    EXPECT_EQ(total.instructions, 30u);
}

TEST_F(SystemFixture, InvalidCoreIsFatal)
{
    bds::MicroOp op;
    EXPECT_THROW(sys->consume(99, op), bds::FatalError);
    EXPECT_THROW(sys->coreCounters(99), bds::FatalError);
}

TEST_F(SystemFixture, SequentialCodePrefetchHidesSecondLine)
{
    // A 128-byte (two-line) function executed repeatedly after the
    // working set exceeds the L1I: the streaming prefetcher should
    // keep demand misses near one per function visit, not two.
    CodeImage fw(space, Region::FrameworkCode);
    std::vector<FunctionDesc> fns;
    for (int i = 0; i < 512; ++i) {
        fns.push_back(fw.defineFunction(128));
        space.allocate(Region::FrameworkCode, 64 * (i % 7)); // de-alias
    }
    ExecContext ctx(*sys, 0, fns[0]);
    for (int round = 0; round < 6; ++round)
        for (const auto &fn : fns) {
            ctx.call(fn);
            ctx.intOps(30); // walk both lines of the body
            ctx.ret();
        }
    const PmcCounters &pmc = sys->coreCounters(0);
    double misses_per_visit = static_cast<double>(pmc.l1iMisses)
        / (6.0 * 512.0);
    EXPECT_LT(misses_per_visit, 1.5);
    EXPECT_GT(pmc.l1iMisses, 512u); // but the set does thrash
}

TEST_F(SystemFixture, DmaFillInvalidatesCachedData)
{
    ExecContext ctx(*sys, 0, smallFn());
    std::uint64_t buf = space.allocate(Region::Heap, 1 << 16);
    // Warm the buffer, then DMA over it: re-reads must miss the LLC.
    ctx.scan(buf, 1 << 16, 64, 0);
    ctx.scan(buf, 1 << 16, 64, 0);
    sys->resetCounters();
    ctx.scan(buf, 1 << 16, 64, 0);
    EXPECT_EQ(sys->coreCounters(0).loadLlcMiss, 0u); // warm

    sys->dmaFill(buf, 1 << 16);
    sys->resetCounters();
    ctx.scan(buf, 1 << 16, 64, 0);
    EXPECT_GT(sys->coreCounters(0).loadLlcMiss, 900u); // cold again
}

TEST_F(SystemFixture, InvariantsHoldOnFreshSystem)
{
    EXPECT_NO_THROW(sys->checkInvariants());
}

/**
 * Property: after an arbitrary mixed soup of loads/stores/fetches
 * across all cores — including heavy sharing and DMA — the MESI
 * single-owner and L1-inclusion invariants hold.
 */
class SystemInvariants : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SystemInvariants, RandomOpSoupPreservesCoherence)
{
    NodeConfig cfg = NodeConfig::defaultSim();
    SystemModel sys(cfg);
    AddressSpace space;
    CodeImage user(space, Region::UserCode);
    std::vector<FunctionDesc> fns;
    for (int i = 0; i < 32; ++i)
        fns.push_back(user.defineFunction(256));

    std::vector<std::unique_ptr<ExecContext>> ctxs;
    for (unsigned c = 0; c < cfg.numCores; ++c)
        ctxs.push_back(std::make_unique<ExecContext>(sys, c, fns[0]));

    // Small shared region: maximal cross-core contention.
    std::uint64_t shared = space.allocate(Region::Heap, 1 << 16);
    bds::Pcg32 rng(GetParam());

    for (int step = 0; step < 60000; ++step) {
        ExecContext &ctx = *ctxs[rng.nextBounded(cfg.numCores)];
        std::uint64_t addr = shared + (rng.next() % (1 << 16)) / 8 * 8;
        switch (rng.nextBounded(6)) {
          case 0:
          case 1:
            ctx.load(addr);
            break;
          case 2:
            ctx.store(addr);
            break;
          case 3:
            ctx.call(fns[rng.nextBounded(32)]);
            ctx.intOps(2);
            ctx.ret();
            break;
          case 4:
            ctx.branch(rng.nextDouble() < 0.5);
            break;
          case 5:
            if (step % 977 == 0)
                sys.dmaFill(shared + (rng.next() % (1 << 15)), 4096);
            else
                ctx.loadDependent(addr);
            break;
        }
        if (step % 7919 == 0)
            sys.checkInvariants();
    }
    EXPECT_NO_THROW(sys.checkInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemInvariants,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST_F(SystemFixture, WritebacksAppearUnderCapacityPressure)
{
    ExecContext ctx(*sys, 0, smallFn());
    // Dirty a footprint much larger than the 256 KB L2 so dirty
    // victims get written back offcore.
    std::uint64_t buf = space.allocate(Region::Heap, 4 << 20);
    for (std::uint64_t off = 0; off < (4 << 20); off += 64)
        ctx.store(buf + off);
    EXPECT_GT(sys->coreCounters(0).offcoreWb, 1000u);
}

TEST_F(SystemFixture, OffcoreClassificationCoversAllTypes)
{
    ExecContext ctx(*sys, 0, smallFn());
    std::uint64_t buf = space.allocate(Region::Heap, 8 << 20);
    ctx.scan(buf, 4 << 20, 64, 1);                  // data reads
    for (std::uint64_t off = 0; off < (4 << 20); off += 64)
        ctx.store(buf + (4 << 20) + off);           // RFOs + WBs

    // Code requests: walk a large framework image once.
    CodeImage fw(space, Region::FrameworkCode);
    std::vector<FunctionDesc> fns;
    for (int i = 0; i < 128; ++i)
        fns.push_back(fw.defineFunction(8192));
    for (const auto &fn : fns) {
        ctx.call(fn);
        ctx.intOps(512);
        ctx.ret();
    }

    const PmcCounters &pmc = sys->coreCounters(0);
    EXPECT_GT(pmc.offcoreData, 0u);
    EXPECT_GT(pmc.offcoreRfo, 0u);
    EXPECT_GT(pmc.offcoreWb, 0u);
    EXPECT_GT(pmc.offcoreCode, 0u);
}

/** What a replay pins: the `%a` cycle sum and three miss counts. */
struct ReplayPin
{
    std::string cycles;
    std::uint64_t l2Misses, l3Misses, dtlbWalks;
};

ReplayPin
pinOf(const SystemModel &sys)
{
    const PmcCounters pmc = sys.aggregateCounters();
    char hex[64];
    std::snprintf(hex, sizeof hex, "%a", pmc.cycles);
    return {hex, pmc.l2Misses, pmc.l3Misses, pmc.dtlbWalks};
}

TEST(DetailPathPin, QuickGrepReplayCyclesAndMissesArePinned)
{
    // The detail path's bitwise contract in tier 1: one recorded
    // quick/42 workload (H-Grep) replayed at 4 cores, once detailed
    // from cold and once warmed through the frozen path and then
    // measured. Every set scan, victim pick and coherence step feeds
    // these sums, so a change to any of them moves a constant here.
    const NodeConfig cfg = NodeConfig::defaultSim();
    ASSERT_EQ(cfg.numCores, 4u);
    bds::WorkloadRunner runner(cfg, bds::ScaleProfile::quick(), 42);
    const bds::WorkloadId grep{bds::Algorithm::Grep,
                               bds::StackKind::Hadoop};
    ASSERT_EQ(grep.name(), "H-Grep");

    bds::RecordingTarget target(cfg.numCores);
    runner.execute(grep, target, runner.nodeDataSeed(grep, 0));
    const bds::TraceRecorder &rec = target.trace();

    auto replay = [&](SystemModel &sys) {
        rec.replay(sys, [&](std::uint64_t a, std::uint64_t n) {
            sys.dmaFill(a, n);
        });
    };
    SystemModel detail(cfg);
    replay(detail);
    SystemModel warmed(cfg);
    warmed.setCounterFreeze(true);
    replay(warmed);
    warmed.setCounterFreeze(false);
    replay(warmed);

    const ReplayPin d = pinOf(detail), w = pinOf(warmed);
    EXPECT_EQ(rec.size(), 1187220u);
    EXPECT_EQ(d.cycles, "0x1.3cf26df6a7dcp+23");
    EXPECT_EQ(d.l2Misses, 305987u);
    EXPECT_EQ(d.l3Misses, 133850u);
    EXPECT_EQ(d.dtlbWalks, 4656u);
    EXPECT_EQ(w.cycles, "0x1.b184741c7001bp+22");
    EXPECT_EQ(w.l2Misses, 305714u);
    EXPECT_EQ(w.l3Misses, 30000u);
    EXPECT_EQ(w.dtlbWalks, 4261u);
}

} // namespace
