/**
 * @file
 * The restore-identity contract end to end:
 *
 *  - a SystemModel saved mid-run and restored into a fresh instance
 *    continues bitwise-identically to the original;
 *  - a geometry-guard mismatch on restore is a typed Error(Io);
 *  - a sampled replay restoring interval checkpoints produces the
 *    same 45 metrics, bit for bit, as warming from zero — and a
 *    corrupted checkpoint degrades to a counted warm-from-zero
 *    fallback with identical metrics, never drift;
 *  - re-executing the stack engines and replaying a recorded trace
 *    write byte-identical checkpoints and restore identically.
 */

#include <array>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/context.h"
#include "ckpt/state.h"
#include "common/rng.h"
#include "fault/error.h"
#include "sample/capture.h"
#include "sample/interval.h"
#include "trace/memlayout.h"
#include "trace/recorder.h"
#include "trace/runtime.h"
#include "uarch/machine.h"
#include "uarch/system.h"
#include "workloads/registry.h"

namespace {

using bds::AddressSpace;
using bds::allWorkloads;
using bds::captureWorkload;
using bds::checkpointContextFor;
using bds::CheckpointContext;
using bds::ckptStats;
using bds::CkptStats;
using bds::CodeImage;
using bds::Error;
using bds::ErrorCode;
using bds::ExecContext;
using bds::NodeConfig;
using bds::PmcCounters;
using bds::Region;
using bds::replayCapture;
using bds::resetCkptStats;
using bds::resolveMachineSpec;
using bds::RunConfig;
using bds::SampledWorkloadResult;
using bds::StateSink;
using bds::StateSource;
using bds::SystemModel;
using bds::TraceRecorder;
using bds::WorkloadCapture;
using bds::WorkloadId;
using bds::WorkloadRunner;

/** A trace with enough reuse that state visibly matters. */
TraceRecorder
makeTrace(unsigned seed)
{
    TraceRecorder rec;
    AddressSpace space;
    CodeImage user(space, Region::UserCode);
    std::vector<bds::FunctionDesc> fns;
    for (int i = 0; i < 6; ++i)
        fns.push_back(user.defineFunction(256));
    ExecContext ctx(rec, 0, fns[0]);
    std::uint64_t buf = space.allocate(Region::Heap, 4 << 20);
    bds::Pcg32 rng(seed);
    for (int i = 0; i < 3000; ++i) {
        ctx.call(fns[rng.nextBounded(6)]);
        ctx.load(buf + (i * 64) % (4u << 20));
        ctx.branch(rng.nextDouble() < 0.55);
        if (i % 5 == 0)
            ctx.store(buf + (i * 192) % (4u << 20));
        ctx.ret();
    }
    return rec;
}

void
replayInto(const TraceRecorder &rec, SystemModel &sys)
{
    rec.replay(sys, [&](std::uint64_t a, std::uint64_t n) {
        sys.dmaFill(a, n);
    });
}

/** Bitwise equality over all 45 counter fields. */
void
expectCountersBitwiseEqual(const PmcCounters &a, const PmcCounters &b)
{
    const std::array<double, PmcCounters::kNumFields> aa = a.toArray();
    const std::array<double, PmcCounters::kNumFields> bb = b.toArray();
    EXPECT_EQ(std::memcmp(aa.data(), bb.data(),
                          sizeof(double) * aa.size()),
              0);
}

TEST(SystemStateRestore, SaveLoadContinuationIsBitwise)
{
    const TraceRecorder first = makeTrace(11);
    const TraceRecorder second = makeTrace(23);
    const NodeConfig cfg = NodeConfig::defaultSim();

    // Original: run, snapshot mid-flight, keep running.
    SystemModel original(cfg);
    replayInto(first, original);
    StateSink sink;
    original.saveState(sink);
    const std::string snapshot = sink.bytes();
    replayInto(second, original);

    // Clone: restore the snapshot, then run the same continuation.
    SystemModel clone(cfg);
    StateSource src(snapshot, "mid-run snapshot");
    clone.loadState(src);
    src.finish();
    replayInto(second, clone);

    expectCountersBitwiseEqual(original.aggregateCounters(),
                               clone.aggregateCounters());

    // Stronger than counters: the full serialized state agrees.
    StateSink end_a, end_b;
    original.saveState(end_a);
    clone.saveState(end_b);
    EXPECT_EQ(end_a.bytes(), end_b.bytes());
}

TEST(SystemStateRestore, GeometryGuardRejectsForeignPayload)
{
    SystemModel small(resolveMachineSpec("l1-16k"));
    StateSink sink;
    small.saveState(sink);
    const std::string payload = sink.bytes();

    SystemModel big(NodeConfig::defaultSim());
    StateSource src(payload, "foreign geometry");
    try {
        big.loadState(src);
        FAIL() << "16K-L1 payload restored into the default geometry";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Io);
    }
}

TEST(ReplayCheckpointRestore, RestoredReplayIsBitwiseIdentical)
{
    const std::string dir =
        ::testing::TempDir() + "bds_ckpt_replay_test";
    std::system(("rm -rf '" + dir + "'").c_str());

    RunConfig cfg;
    cfg.scaleName = "quick";
    cfg.sampling.enabled = true;
    cfg.ckpt.enabled = true;
    cfg.ckpt.dir = dir;

    const WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    const WorkloadId id = allWorkloads().front();
    const WorkloadCapture cap =
        captureWorkload(runner, cfg.sampling, id, 0);
    const NodeConfig machine = resolveMachineSpec(cfg.machineSpec);

    // Reference: the existing warm-from-zero path, no checkpointing.
    const SampledWorkloadResult base =
        replayCapture(cap, machine, cfg.sampling);

    CheckpointContext ctx = checkpointContextFor(cfg);
    ASSERT_TRUE(ctx.enabled());

    // Cold pass: nothing to restore, snapshots written.
    resetCkptStats();
    const SampledWorkloadResult cold =
        replayCapture(cap, machine, cfg.sampling, &ctx);
    EXPECT_EQ(cold.stats.ckptRestores, 0u);
    EXPECT_GT(cold.stats.ckptWrites, 0u);
    EXPECT_GT(ckptStats().misses, 0u);
    EXPECT_EQ(cold.metrics, base.metrics);

    // Warm pass: every representative restores, no warming replayed.
    const SampledWorkloadResult warm =
        replayCapture(cap, machine, cfg.sampling, &ctx);
    EXPECT_EQ(warm.stats.ckptRestores, cold.stats.ckptWrites);
    EXPECT_EQ(warm.stats.ckptWrites, 0u);
    EXPECT_LT(warm.stats.warmOps, base.stats.warmOps);
    EXPECT_EQ(warm.stats.detailOps, base.stats.detailOps);
    EXPECT_EQ(warm.metrics, base.metrics);

    std::system(("rm -rf '" + dir + "'").c_str());
}

TEST(ReplayCheckpointRestore, CorruptCheckpointFallsBackWarmFromZero)
{
    const std::string dir =
        ::testing::TempDir() + "bds_ckpt_fallback_test";
    std::system(("rm -rf '" + dir + "'").c_str());

    RunConfig cfg;
    cfg.scaleName = "quick";
    cfg.sampling.enabled = true;
    cfg.ckpt.enabled = true;
    cfg.ckpt.dir = dir;

    const WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    const WorkloadId id = allWorkloads().front();
    const WorkloadCapture cap =
        captureWorkload(runner, cfg.sampling, id, 0);
    const NodeConfig machine = resolveMachineSpec(cfg.machineSpec);
    const SampledWorkloadResult base =
        replayCapture(cap, machine, cfg.sampling);

    CheckpointContext ctx = checkpointContextFor(cfg);
    const SampledWorkloadResult cold =
        replayCapture(cap, machine, cfg.sampling, &ctx);
    ASSERT_GT(cold.stats.ckptWrites, 0u);

    // Corrupt the first representative's checkpoint on disk: flip a
    // byte in the middle of the file (inside the state payload).
    const std::string path = ctx.cache->path(
        ctx.keyFor(id.name(), 0), cap.picked.reps.front().interval);
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open()) << path;
        f.seekg(0, std::ios::end);
        const std::streamoff size = f.tellg();
        f.seekp(size / 2);
        char c = 0;
        f.seekg(size / 2);
        f.read(&c, 1);
        f.seekp(size / 2);
        c = static_cast<char>(c ^ 0x40);
        f.write(&c, 1);
    }

    resetCkptStats();
    const SampledWorkloadResult fallback =
        replayCapture(cap, machine, cfg.sampling, &ctx);
    // The corrupt entry fell back (counted), the rest restored, the
    // corrupt one was re-written — and the metrics never moved.
    EXPECT_EQ(ckptStats().fallbacks, 1u);
    EXPECT_EQ(fallback.stats.ckptRestores,
              cold.stats.ckptWrites - 1);
    EXPECT_EQ(fallback.stats.ckptWrites, 1u);
    EXPECT_EQ(fallback.metrics, base.metrics);

    // The re-written entry is valid again: a final pass restores all.
    const SampledWorkloadResult healed =
        replayCapture(cap, machine, cfg.sampling, &ctx);
    EXPECT_EQ(healed.stats.ckptRestores, cold.stats.ckptWrites);
    EXPECT_EQ(healed.metrics, base.metrics);

    std::system(("rm -rf '" + dir + "'").c_str());
}

/** Every regular file under `dir`, relative path -> bytes. */
std::map<std::string, std::string>
readTree(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::map<std::string, std::string> files;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file())
            continue;
        std::ifstream in(e.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        files[fs::relative(e.path(), dir).string()] = bytes.str();
    }
    return files;
}

TEST(ReplayCheckpointRestore, StreamedAndRecordedSourcesAgree)
{
    // The sampled path re-executes the engines on every replay; a
    // capture carrying a recorded trace reads it instead. The cold
    // pass must write byte-identical checkpoint files either way,
    // and the warm restore must be identical too.
    RunConfig cfg;
    cfg.scaleName = "quick";
    cfg.sampling.enabled = true;
    cfg.ckpt.enabled = true;

    const WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    const WorkloadId id = allWorkloads()[19];
    const WorkloadCapture streamed =
        captureWorkload(runner, cfg.sampling, id, 0);
    WorkloadCapture recorded = streamed;
    {
        bds::RecordingTarget rec(streamed.numCores);
        runner.execute(id, rec, streamed.dataSeed);
        recorded.trace = rec.trace();
    }
    const NodeConfig machine = resolveMachineSpec(cfg.machineSpec);

    std::vector<std::map<std::string, std::string>> trees;
    std::vector<SampledWorkloadResult> colds, warms;
    const WorkloadCapture *sources[] = {&streamed, &recorded};
    for (const WorkloadCapture *cap : sources) {
        cfg.ckpt.dir = ::testing::TempDir() + "bds_ckpt_source_"
            + (cap == &streamed ? "streamed" : "recorded");
        std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());
        CheckpointContext ctx = checkpointContextFor(cfg);
        colds.push_back(replayCapture(*cap, machine, cfg.sampling,
                                      &ctx));
        trees.push_back(readTree(cfg.ckpt.dir));
        warms.push_back(replayCapture(*cap, machine, cfg.sampling,
                                      &ctx));
        std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());
    }

    // One file per checkpoint written, plus the store's own index.
    ASSERT_GT(colds[0].stats.ckptWrites, 0u);
    EXPECT_GE(trees[0].size(), colds[0].stats.ckptWrites);
    EXPECT_TRUE(trees[0] == trees[1])
        << "checkpoint files differ between the two stream sources";
    for (const auto *pair : {&colds, &warms}) {
        const SampledWorkloadResult &a = (*pair)[0];
        const SampledWorkloadResult &b = (*pair)[1];
        EXPECT_EQ(a.metrics, b.metrics);
        EXPECT_EQ(a.stats.totalOps, b.stats.totalOps);
        EXPECT_EQ(a.stats.detailOps, b.stats.detailOps);
        EXPECT_EQ(a.stats.warmOps, b.stats.warmOps);
        EXPECT_EQ(a.stats.skippedOps, b.stats.skippedOps);
        EXPECT_EQ(a.stats.ckptRestores, b.stats.ckptRestores);
        EXPECT_EQ(a.stats.ckptWrites, b.stats.ckptWrites);
    }
    EXPECT_EQ(warms[0].stats.ckptRestores, colds[0].stats.ckptWrites);
    EXPECT_EQ(warms[0].metrics, colds[0].metrics);
}

} // namespace
