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
 *    write byte-identical checkpoints and restore identically;
 *  - seeded mutants of a real checkpoint either restore or raise a
 *    typed bds::Error, through both the container and the payload
 *    parser.
 */

#include <array>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "ckpt/context.h"
#include "ckpt/state.h"
#include "common/rng.h"
#include "fault/error.h"
#include "obs/metrics.h"
#include "sample/capture.h"
#include "sample/interval.h"
#include "serve/confighash.h"
#include "store/record.h"
#include "trace/memlayout.h"
#include "trace/recorder.h"
#include "trace/runtime.h"
#include "uarch/machine.h"
#include "uarch/system.h"
#include "workloads/registry.h"

#include "../mutator.h"

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
    // Save -> load -> save is byte-identical.
    StateSink resaved;
    clone.saveState(resaved);
    EXPECT_EQ(resaved.bytes(), snapshot);
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

/** fnv1a64 of the quick/42 cold pass's payloads (first workload). */
const char *const kColdPayloadDigest = "d4952f4f89906430";

/** stateChecksum() of the same bytes. */
const char *const kColdPayloadSum = "789116d1977abd75";

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
    bds::counters::reset();
    const SampledWorkloadResult cold =
        replayCapture(cap, machine, cfg.sampling, &ctx);
    EXPECT_EQ(cold.stats.ckptRestores, 0u);
    EXPECT_GT(cold.stats.ckptWrites, 0u);
    EXPECT_GT(ckptStats().misses, 0u);
    EXPECT_EQ(cold.metrics, base.metrics);

    // The state payloads (not the container header) are pinned byte
    // for byte: a golden digest over every written (interval,
    // payload) of this warmed 4-core model, in interval order. A
    // change to any saveState() field list or record layout moves it
    // and needs a kCheckpointVersion bump.
    std::string written;
    for (const bds::Representative &r : cap.picked.reps) {
        std::string state;
        ASSERT_TRUE(ctx.cache->load(ctx.keyFor(id.name(), 0), r.interval,
                                    &state));
        written += std::to_string(r.interval) + ':' + state;
    }
    EXPECT_EQ(machine.numCores, 4u);
    EXPECT_EQ(bds::toHex64(bds::fnv1a64(written)), kColdPayloadDigest);
    // The store's one payload checksum, pinned on the same real
    // payload: every store file verifies with it, so a change to it
    // would turn every checkpoint, capture record and result entry
    // on disk into a corrupt one.
    EXPECT_EQ(bds::toHex64(bds::stateChecksum(written)), kColdPayloadSum);

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

/** The whole file at `path`. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/**
 * The version-1 container (byte-serial FNV-1a `state_fnv` header) of
 * a checkpoint, as caches written before version 2 hold it.
 */
std::string
versionOneEntry(const bds::CheckpointKey &key, std::uint64_t interval,
                const std::string &state)
{
    std::ostringstream os;
    os << "BDSCKPT 1\n"
       << "hash " << key.configHash << '\n'
       << "slug " << key.machineSlug << '\n'
       << "machine_bytes " << key.machineText.size() << '\n'
       << key.machineText
       << "workload_bytes " << key.workload.size() << '\n'
       << key.workload
       << "node " << key.node << '\n'
       << "interval " << interval << '\n'
       << "state_fnv " << bds::toHex64(bds::fnv1a64(state)) << '\n'
       << "state_bytes " << state.size() << '\n'
       << state << "END\n";
    return os.str();
}

TEST(ReplayCheckpointRestore, CorruptCheckpointFallsBackWarmFromZero)
{
    RunConfig cfg;
    cfg.scaleName = "quick";
    cfg.sampling.enabled = true;
    cfg.ckpt.enabled = true;

    const WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    const WorkloadId id = allWorkloads().front();
    const WorkloadCapture cap =
        captureWorkload(runner, cfg.sampling, id, 0);
    const NodeConfig machine = resolveMachineSpec(cfg.machineSpec);
    const SampledWorkloadResult base =
        replayCapture(cap, machine, cfg.sampling);
    const std::uint64_t interval = cap.picked.reps.front().interval;

    // Two ways the first representative's entry goes bad on disk: a
    // flipped byte mid-file (inside the state payload), and an entry
    // a version-1 cache left behind.
    const std::map<std::string,
                   std::function<void(const CheckpointContext &,
                                      const std::string &)>>
        corruptions = {
            {"flipped-byte",
             [](const CheckpointContext &, const std::string &path) {
                 std::string bytes = slurp(path);
                 bytes[bytes.size() / 2] ^= 0x40;
                 spit(path, bytes);
             }},
            {"version-1",
             [&](const CheckpointContext &ctx, const std::string &path) {
                 std::string state;
                 ASSERT_TRUE(ctx.cache->load(ctx.keyFor(id.name(), 0),
                                             interval, &state));
                 spit(path, versionOneEntry(ctx.keyFor(id.name(), 0),
                                            interval, state));
             }},
        };
    for (const auto &[name, corrupt] : corruptions) {
        SCOPED_TRACE(name);
        cfg.ckpt.dir = ::testing::TempDir() + "bds_ckpt_fallback_" + name;
        std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());
        CheckpointContext ctx = checkpointContextFor(cfg);
        const SampledWorkloadResult cold =
            replayCapture(cap, machine, cfg.sampling, &ctx);
        ASSERT_GT(cold.stats.ckptWrites, 0u);

        const std::string path =
            ctx.cache->path(ctx.keyFor(id.name(), 0), interval);
        corrupt(ctx, path);

        bds::counters::reset();
        const SampledWorkloadResult fallback =
            replayCapture(cap, machine, cfg.sampling, &ctx);
        // The bad entry fell back (counted once), the pass simulated
        // from zero, restoring nothing and re-writing every entry —
        // and the metrics never moved.
        const std::uint64_t reps = cap.picked.reps.size();
        EXPECT_EQ(ckptStats().fallbacks, 1u);
        EXPECT_EQ(ckptStats().misses, reps - 1);
        EXPECT_EQ(ckptStats().hits, 0u);
        EXPECT_EQ(fallback.stats.ckptRestores, 0u);
        EXPECT_EQ(fallback.stats.ckptWrites, reps);
        EXPECT_EQ(fallback.stats.warmOps, base.stats.warmOps);
        EXPECT_EQ(fallback.metrics, base.metrics);
        const std::string header =
            "BDSCKPT " + std::to_string(bds::kCheckpointVersion) + "\n";
        EXPECT_EQ(slurp(path).rfind(header, 0), 0u);

        // The re-written entry is valid again: a final pass restores
        // all, with no fallback and no stream (the capture below has
        // no way to run one).
        WorkloadCapture sliced = cap;
        sliced.runner = nullptr;
        bds::counters::reset();
        const SampledWorkloadResult healed =
            replayCapture(sliced, machine, cfg.sampling, &ctx);
        EXPECT_EQ(ckptStats().fallbacks, 0u);
        EXPECT_EQ(healed.stats.ckptRestores, reps);
        EXPECT_EQ(healed.stats.warmOps, 0u);
        EXPECT_EQ(healed.metrics, base.metrics);

        std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());
    }
}

TEST(CheckpointMutation, MutantsRestoreOrRaiseTypedErrors)
{
    // A deterministic mutational fuzz of the two parsers a restore
    // runs: the container (readCheckpoint) and the state payload
    // (StateSource under SystemModel::loadState). The seed is one
    // real quick-scale checkpoint; the seed value and budget are
    // fixed so every run tries the same mutants.
    RunConfig cfg;
    cfg.scaleName = "quick";
    cfg.sampling.enabled = true;
    cfg.ckpt.enabled = true;
    cfg.ckpt.dir = ::testing::TempDir() + "bds_ckpt_mutation";
    std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());

    const WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    const WorkloadId id = allWorkloads().front();
    const WorkloadCapture cap =
        captureWorkload(runner, cfg.sampling, id, 0);
    const NodeConfig machine = resolveMachineSpec(cfg.machineSpec);
    CheckpointContext ctx = checkpointContextFor(cfg);
    replayCapture(cap, machine, cfg.sampling, &ctx);

    const bds::CheckpointKey key = ctx.keyFor(id.name(), 0);
    const std::uint64_t interval = cap.picked.reps.front().interval;
    const std::string file = slurp(ctx.cache->path(key, interval));
    std::string state;
    ASSERT_TRUE(ctx.cache->load(key, interval, &state));
    std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());

    // Where the length fields sit: the container's *_bytes lines and
    // the payload's per-structure valid counts (u64 right before each
    // cache / TLB record run).
    std::vector<std::size_t> count_fields;
    for (const auto &[tag, offset] :
         {std::pair<const char *, std::size_t>{"CACH", 36},
          std::pair<const char *, std::size_t>{"TLBA", 28}})
        for (std::size_t at = state.find(tag);
             at != std::string::npos && at + offset + 8 <= state.size();
             at = state.find(tag, at + 1))
            count_fields.push_back(at + offset);
    ASSERT_FALSE(count_fields.empty());
    const std::vector<std::string> size_keys = {
        "machine_bytes ", "workload_bytes ", "state_bytes "};

    bds::Mutator mut(0x6d757461ULL);
    SystemModel sys(machine);
    std::size_t restored = 0, typed = 0;
    auto attempt = [&](std::string bytes, const std::string &what) {
        try {
            const bds::CheckpointEntry entry =
                bds::readCheckpoint(std::move(bytes), what, key, interval);
            StateSource src(entry.state, what);
            sys.loadState(src);
            src.finish();
            ++restored;
        } catch (const Error &) {
            ++typed;
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": untyped " << e.what();
        }
    };

    constexpr int kMutants = 2000;
    for (int i = 0; i < kMutants; ++i) {
        const unsigned op = static_cast<unsigned>(mut.below(4));
        const std::string what = "mutant " + std::to_string(i);
        if (i % 2 == 0) {
            // The container as read from disk.
            std::string bytes = file;
            if (op < 3)
                mut.mutate(bytes, op);
            else
                mut.inflateField(bytes, size_keys);
            attempt(std::move(bytes), what);
        } else {
            // The payload behind a valid checksum, so the mutant
            // reaches the state decoder.
            bds::CheckpointEntry entry;
            entry.key = key;
            entry.interval = interval;
            entry.state = state;
            if (op < 3) {
                mut.mutate(entry.state, op);
            } else {
                const std::size_t at =
                    count_fields[mut.below(count_fields.size())];
                bds::storeLe64(entry.state.data() + at,
                               mut.inflated(bds::loadLe64(
                                   entry.state.data() + at)));
            }
            attempt(bds::writeCheckpoint(entry), what);
        }
    }
    EXPECT_EQ(restored + typed, static_cast<std::size_t>(kMutants));
    // Both outcomes occur: the loop reaches past the checks.
    EXPECT_GT(restored, 0u);
    EXPECT_GT(typed, kMutants / 2u);
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
        files[fs::relative(e.path(), dir).string()] =
            slurp(e.path().string());
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
