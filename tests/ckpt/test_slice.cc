/**
 * @file
 * The warm sampled pass that runs no stack engine: a capture record
 * stands in for execute, profile and pick, and each representative's
 * checkpoint carries the detail slice the restored model is fed.
 *
 *  - slice replay equals the cold, re-executed pass bitwise
 *    (metrics, counters, total and detail ops) for all 32 workloads
 *    at quick/42;
 *  - each way one file goes bad sends the pass down the simulation
 *    from zero: one counted fallback or miss for that file, a miss
 *    for every other representative, no changed result, and every
 *    entry rewritten;
 *  - every pass counts each representative exactly once, and
 *    slice-less entries never restore;
 *  - retry attempts never read or write capture records;
 *  - seeded mutants of the slice section, the slice decoder and the
 *    capture record either parse identically or raise bds::Error.
 */

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "ckpt/context.h"
#include "common/parallel.h"
#include "fault/error.h"
#include "fault/inject.h"
#include "sample/capture.h"
#include "trace/recorder.h"
#include "uarch/machine.h"
#include "uarch/system.h"
#include "workloads/registry.h"

#include "../mutator.h"

namespace {

using bds::allWorkloads;
using bds::captureWorkload;
using bds::CheckpointContext;
using bds::checkpointContextFor;
using bds::CheckpointEntry;
using bds::CheckpointKey;
using bds::ckptStats;
using bds::CkptStats;
using bds::Error;
using bds::ErrorCode;
using bds::replayCapture;
using bds::Representative;
using bds::RunConfig;
using bds::SampledWorkloadResult;
using bds::SystemModel;
using bds::TraceRecorder;
using bds::WorkloadCapture;
using bds::WorkloadId;
using bds::WorkloadRunner;

/** A quick-scale sampled config checkpointing into a fresh `dir`. */
RunConfig
quickConfig(const std::string &name)
{
    RunConfig cfg;
    cfg.scaleName = "quick";
    cfg.sampling.enabled = true;
    cfg.ckpt.enabled = true;
    cfg.ckpt.dir = ::testing::TempDir() + name;
    std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());
    return cfg;
}

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

/** Capture (through the record) and replay, as the sampler does. */
SampledWorkloadResult
samplePass(const WorkloadRunner &runner, const RunConfig &cfg,
           const CheckpointContext &ctx, const WorkloadId &id)
{
    const WorkloadCapture cap =
        captureWorkload(runner, cfg.sampling, id, 0, &ctx);
    return replayCapture(cap, runner.config(), cfg.sampling, &ctx);
}

/** Bitwise equality of metrics and counters; equal op totals. */
void
expectSameEstimate(const SampledWorkloadResult &a,
                   const SampledWorkloadResult &b)
{
    EXPECT_EQ(std::memcmp(a.metrics.data(), b.metrics.data(),
                          sizeof(double) * a.metrics.size()),
              0);
    const auto ca = a.counters.toArray();
    const auto cb = b.counters.toArray();
    EXPECT_EQ(std::memcmp(ca.data(), cb.data(), sizeof(double) * ca.size()),
              0);
    EXPECT_EQ(a.stats.totalOps, b.stats.totalOps);
    EXPECT_EQ(a.stats.detailOps, b.stats.detailOps);
}

/** expectSameEstimate() plus the rest of the op accounting. */
void
expectSameResult(const SampledWorkloadResult &a,
                 const SampledWorkloadResult &b)
{
    expectSameEstimate(a, b);
    EXPECT_EQ(a.stats.warmOps, b.stats.warmOps);
    EXPECT_EQ(a.stats.skippedOps, b.stats.skippedOps);
    EXPECT_EQ(a.stats.ckptRestores, b.stats.ckptRestores);
    EXPECT_EQ(a.stats.ckptWrites, b.stats.ckptWrites);
}

CkptStats
minus(const CkptStats &a, const CkptStats &b)
{
    CkptStats d;
    d.hits = a.hits - b.hits;
    d.misses = a.misses - b.misses;
    d.writes = a.writes - b.writes;
    d.fallbacks = a.fallbacks - b.fallbacks;
    d.captureHits = a.captureHits - b.captureHits;
    d.captureMisses = a.captureMisses - b.captureMisses;
    d.captureWrites = a.captureWrites - b.captureWrites;
    d.captureFallbacks = a.captureFallbacks - b.captureFallbacks;
    return d;
}

TEST(SliceReplay, EqualsReexecutedReplayForEveryWorkload)
{
    // The reference is the cold pass that wrote the entries: it
    // re-executed the stream from zero and restored nothing.
    const RunConfig cfg = quickConfig("bds_slice_every_workload");
    const WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    const CheckpointContext ctx = checkpointContextFor(cfg);

    const std::vector<WorkloadId> ids = allWorkloads();
    ASSERT_EQ(ids.size(), 32u);
    std::vector<SampledWorkloadResult> cold(ids.size()),
        sliced(ids.size());
    std::vector<std::size_t> reps(ids.size());
    bds::parallelFor(ids.size(), 4, [&](std::size_t i) {
        cold[i] = samplePass(runner, cfg, ctx, ids[i]);
        // Slices alone: a capture with no way to run the stream.
        WorkloadCapture cap =
            captureWorkload(runner, cfg.sampling, ids[i], 0, &ctx);
        reps[i] = cap.picked.reps.size();
        cap.runner = nullptr;
        sliced[i] = replayCapture(cap, runner.config(), cfg.sampling,
                                  &ctx);
    });
    for (std::size_t i = 0; i < ids.size(); ++i) {
        SCOPED_TRACE(ids[i].name());
        expectSameEstimate(sliced[i], cold[i]);
        EXPECT_EQ(cold[i].stats.ckptRestores, 0u);
        EXPECT_EQ(cold[i].stats.ckptWrites, reps[i]);
        EXPECT_EQ(sliced[i].stats.ckptRestores, reps[i]);
        EXPECT_EQ(sliced[i].stats.warmOps, 0u);
        EXPECT_EQ(sliced[i].stats.ckptWrites, 0u);
    }
    std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());
}

/** The v2 container of an entry: no slice lines, version 2. */
std::string
versionTwoEntry(const CheckpointKey &key, std::uint64_t interval,
                const std::string &state)
{
    CheckpointEntry entry;
    entry.key = key;
    entry.interval = interval;
    entry.state = state;
    std::string bytes = bds::writeCheckpoint(entry);
    bytes.replace(0, 9, "BDSCKPT 2");
    bytes.erase(bytes.rfind("ops_sum "));
    return bytes + "END\n";
}

TEST(SliceReplay, EachBadFileIsOneCountedFallback)
{
    struct Case
    {
        const char *name;
        /** Damage one file of the stream. */
        std::function<void(const CheckpointContext &, const CheckpointKey &,
                           std::uint64_t interval)>
            damage;
        CkptStats expect; ///< traffic of the pass that meets it
    };
    auto stats = [](std::uint64_t hits, std::uint64_t misses,
                    std::uint64_t writes, std::uint64_t fallbacks,
                    std::uint64_t capture_hits,
                    std::uint64_t capture_fallbacks) {
        CkptStats s;
        s.hits = hits;
        s.misses = misses;
        s.writes = writes;
        s.fallbacks = fallbacks;
        s.captureHits = capture_hits;
        s.captureFallbacks = capture_fallbacks;
        s.captureWrites = capture_fallbacks;
        return s;
    };

    RunConfig cfg = quickConfig("bds_slice_cases");
    const WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    const WorkloadId id = allWorkloads().front();
    const WorkloadCapture cap = captureWorkload(runner, cfg.sampling, id, 0);
    const SampledWorkloadResult base =
        replayCapture(cap, runner.config(), cfg.sampling);
    const std::size_t reps = cap.picked.reps.size();
    ASSERT_GE(reps, 3u);

    // A representative in the middle: the slice path restores the
    // ones before it, then has to start over on a fresh model. The
    // pass restores nothing and rewrites every entry; a bad entry is
    // one fallback and every other representative a miss.
    const std::vector<Case> cases = {
        {"flipped-slice-byte",
         [](const CheckpointContext &ctx, const CheckpointKey &key,
            std::uint64_t interval) {
             const std::string path = ctx.cache->path(key, interval);
             std::string bytes = slurp(path);
             const std::size_t ops = bytes.find("ops_bytes ");
             ASSERT_NE(ops, std::string::npos);
             bytes[bytes.find('\n', ops) + 30] ^= 0x10;
             spit(path, bytes);
         },
         stats(0, reps - 1, reps, 1, 1, 0)},
        {"evicted-entry",
         [](const CheckpointContext &ctx, const CheckpointKey &key,
            std::uint64_t interval) {
             ASSERT_EQ(std::remove(ctx.cache->path(key, interval).c_str()),
                       0);
         },
         stats(0, reps, reps, 0, 1, 0)},
        {"version-2",
         [](const CheckpointContext &ctx, const CheckpointKey &key,
            std::uint64_t interval) {
             std::string state;
             ASSERT_TRUE(ctx.cache->load(key, interval, &state));
             spit(ctx.cache->path(key, interval),
                  versionTwoEntry(key, interval, state));
         },
         stats(0, reps - 1, reps, 1, 1, 0)},
        {"corrupt-capture-record",
         [](const CheckpointContext &ctx, const CheckpointKey &key,
            std::uint64_t) {
             const std::string path = ctx.cache->capturePath(key);
             std::string bytes = slurp(path);
             bytes[bytes.size() / 2] ^= 0x01;
             spit(path, bytes);
         },
         stats(reps, 0, 0, 0, 0, 1)},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        cfg = quickConfig(std::string("bds_slice_") + c.name);
        const CheckpointContext ctx = checkpointContextFor(cfg);
        const CheckpointKey key = ctx.keyFor(id.name(), 0);
        const std::uint64_t interval = cap.picked.reps[reps / 2].interval;
        samplePass(runner, cfg, ctx, id);
        const SampledWorkloadResult healthy =
            samplePass(runner, cfg, ctx, id);
        c.damage(ctx, key, interval);

        CkptStats before = ckptStats();
        const SampledWorkloadResult met = samplePass(runner, cfg, ctx, id);
        const CkptStats d = minus(ckptStats(), before);
        EXPECT_EQ(d.hits, c.expect.hits);
        EXPECT_EQ(d.misses, c.expect.misses);
        EXPECT_EQ(d.writes, c.expect.writes);
        EXPECT_EQ(d.fallbacks, c.expect.fallbacks);
        EXPECT_EQ(d.captureHits, c.expect.captureHits);
        EXPECT_EQ(d.captureMisses, 0u);
        EXPECT_EQ(d.captureWrites, c.expect.captureWrites);
        EXPECT_EQ(d.captureFallbacks, c.expect.captureFallbacks);
        EXPECT_EQ(met.metrics, base.metrics);
        EXPECT_EQ(met.counters.toArray(), healthy.counters.toArray());
        EXPECT_EQ(met.stats.detailOps, healthy.stats.detailOps);
        EXPECT_EQ(met.stats.ckptRestores + met.stats.ckptWrites, reps);

        // Rewritten: the next pass is stream-free and clean again.
        EXPECT_EQ(slurp(ctx.cache->path(key, interval)).rfind("BDSCKPT 3\n", 0),
                  0u);
        before = ckptStats();
        WorkloadCapture again =
            captureWorkload(runner, cfg.sampling, id, 0, &ctx);
        again.runner = nullptr;
        const SampledWorkloadResult healed =
            replayCapture(again, runner.config(), cfg.sampling, &ctx);
        const CkptStats h = minus(ckptStats(), before);
        EXPECT_EQ(h.hits, reps);
        EXPECT_EQ(h.misses + h.writes + h.fallbacks, 0u);
        EXPECT_EQ(h.captureHits, 1u);
        EXPECT_EQ(h.captureFallbacks + h.captureWrites, 0u);
        expectSameResult(healed, healthy);
        std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());
    }
}

TEST(SliceReplay, EveryPassCountsEachRepresentativeOnce)
{
    // hits + misses + fallbacks == reps on every pass, whatever the
    // cache holds; at most one fallback, and a pass that cannot
    // replay its slices writes every entry.
    const RunConfig cfg = quickConfig("bds_slice_count_once");
    const WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    const CheckpointContext ctx = checkpointContextFor(cfg);
    const WorkloadId id = allWorkloads()[9];
    const CheckpointKey key = ctx.keyFor(id.name(), 0);
    const WorkloadCapture cap = captureWorkload(runner, cfg.sampling, id, 0);
    const std::uint64_t reps = cap.picked.reps.size();
    ASSERT_GE(reps, 2u);
    const std::string first =
        ctx.cache->path(key, cap.picked.reps.front().interval);
    const std::string last =
        ctx.cache->path(key, cap.picked.reps.back().interval);
    auto flip = [](const std::string &path) {
        std::string bytes = slurp(path);
        bytes[bytes.size() / 2] ^= 0x40;
        spit(path, bytes);
    };

    struct Pass
    {
        const char *name;
        std::function<void()> damage;
        bool warm; ///< every entry restores, none is written
    };
    const std::vector<Pass> passes = {
        {"cold", [] {}, false},
        {"warm", [] {}, true},
        {"flipped-first", [&] { flip(first); }, false},
        {"evicted-last", [&] { std::remove(last.c_str()); }, false},
        {"flipped-first-evicted-last",
         [&] {
             flip(first);
             std::remove(last.c_str());
         },
         false},
        {"warm-again", [] {}, true},
    };
    for (const Pass &pass : passes) {
        SCOPED_TRACE(pass.name);
        pass.damage();
        const CkptStats before = ckptStats();
        const SampledWorkloadResult r = samplePass(runner, cfg, ctx, id);
        const CkptStats d = minus(ckptStats(), before);
        EXPECT_EQ(d.hits + d.misses + d.fallbacks, reps);
        EXPECT_LE(d.fallbacks, 1u);
        EXPECT_EQ(d.hits, pass.warm ? reps : 0u);
        EXPECT_EQ(d.writes, pass.warm ? 0u : reps);
        EXPECT_EQ(r.stats.ckptRestores, pass.warm ? reps : 0u);
        EXPECT_EQ(r.stats.ckptWrites, pass.warm ? 0u : reps);
    }
    std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());
}

TEST(SliceReplay, SliceLessEntriesNeverRestore)
{
    // Entries from the state-only store() overload verify but spare
    // no stream: a pass over a directory of them restores nothing,
    // equals the no-checkpoint pass bit for bit, and rewrites each
    // entry with its slice.
    const RunConfig cfg = quickConfig("bds_slice_less");
    const WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    const CheckpointContext ctx = checkpointContextFor(cfg);
    const WorkloadId id = allWorkloads()[12];
    const CheckpointKey key = ctx.keyFor(id.name(), 0);
    const WorkloadCapture cap = captureWorkload(runner, cfg.sampling, id, 0);
    const std::uint64_t reps = cap.picked.reps.size();
    const SampledWorkloadResult base =
        replayCapture(cap, runner.config(), cfg.sampling);

    replayCapture(cap, runner.config(), cfg.sampling, &ctx);
    for (const Representative &r : cap.picked.reps) {
        CheckpointEntry entry;
        ASSERT_TRUE(ctx.cache->read(key, r.interval, &entry));
        ctx.cache->store(key, r.interval, entry.state);
        ASSERT_TRUE(ctx.cache->read(key, r.interval, &entry));
        ASSERT_TRUE(entry.ops.empty());
    }

    CkptStats before = ckptStats();
    const SampledWorkloadResult met =
        replayCapture(cap, runner.config(), cfg.sampling, &ctx);
    CkptStats d = minus(ckptStats(), before);
    EXPECT_EQ(d.hits, 0u);
    EXPECT_EQ(d.misses, reps);
    EXPECT_EQ(d.fallbacks, 0u);
    EXPECT_EQ(d.writes, reps);
    expectSameEstimate(met, base);
    EXPECT_EQ(met.stats.warmOps, base.stats.warmOps);
    EXPECT_EQ(met.stats.skippedOps, base.stats.skippedOps);
    EXPECT_EQ(met.stats.ckptRestores, 0u);
    EXPECT_EQ(met.stats.ckptWrites, reps);

    // Rewritten with slices: the next pass needs no stream.
    WorkloadCapture sliced = cap;
    sliced.runner = nullptr;
    before = ckptStats();
    const SampledWorkloadResult warm =
        replayCapture(sliced, runner.config(), cfg.sampling, &ctx);
    d = minus(ckptStats(), before);
    EXPECT_EQ(d.hits, reps);
    EXPECT_EQ(warm.stats.ckptRestores, reps);
    expectSameEstimate(warm, base);
    std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());
}

TEST(SliceReplay, RetryAttemptsNeverTouchCaptureRecords)
{
    const RunConfig cfg = quickConfig("bds_slice_retry");
    const WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    const CheckpointContext ctx = checkpointContextFor(cfg);
    const WorkloadId id = allWorkloads()[5];
    const CheckpointKey key = ctx.keyFor(id.name(), 0);
    samplePass(runner, cfg, ctx, id);
    const std::string record = slurp(ctx.cache->capturePath(key));
    ASSERT_FALSE(record.empty());

    bds::AttemptContext retry;
    retry.attempt = 1;
    for (bool present : {true, false}) {
        SCOPED_TRACE(present ? "record present" : "record absent");
        if (!present) {
            ASSERT_EQ(std::remove(ctx.cache->capturePath(key).c_str()), 0);
        }
        const CkptStats before = ckptStats();
        {
            bds::AttemptScope scope(retry);
            samplePass(runner, cfg, ctx, id);
        }
        const CkptStats d = minus(ckptStats(), before);
        EXPECT_EQ(d.captureHits + d.captureMisses + d.captureWrites
                      + d.captureFallbacks,
                  0u);
        EXPECT_EQ(d.hits + d.misses + d.writes + d.fallbacks, 0u);
        EXPECT_EQ(slurp(ctx.cache->capturePath(key)),
                  present ? record : std::string());
    }
    std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());
}

/** One real checkpoint file of a quick-scale workload, and its key. */
struct RealEntry
{
    CheckpointKey key;
    std::uint64_t interval = 0;
    std::string file;
    CheckpointEntry entry;
    std::string record; ///< the stream's capture record
    WorkloadCapture cap;
};

RealEntry
realEntry(const std::string &name)
{
    const RunConfig cfg = quickConfig(name);
    const WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    const CheckpointContext ctx = checkpointContextFor(cfg);
    const WorkloadId id = allWorkloads().front();
    RealEntry e;
    e.cap = captureWorkload(runner, cfg.sampling, id, 0, &ctx);
    replayCapture(e.cap, runner.config(), cfg.sampling, &ctx);
    e.key = ctx.keyFor(id.name(), 0);
    e.interval = e.cap.picked.reps.front().interval;
    e.file = slurp(ctx.cache->path(e.key, e.interval));
    e.record = slurp(ctx.cache->capturePath(e.key));
    EXPECT_TRUE(ctx.cache->read(e.key, e.interval, &e.entry));
    e.cap.runner = nullptr;
    std::system(("rm -rf '" + cfg.ckpt.dir + "'").c_str());
    return e;
}

TEST(CheckpointMutation, SliceSectionMutantsParseIdenticallyOrRaise)
{
    // Even mutants damage the file as read from disk: each must
    // raise or yield the very same state and slice (hence the same
    // replay). Odd mutants damage the slice behind a valid checksum,
    // so they reach the event decoder: each must raise Error(Io) or
    // decode to ops a model can consume, which it then does.
    const RealEntry real = realEntry("bds_slice_mutation");
    ASSERT_FALSE(real.entry.ops.empty());
    const unsigned cores = 4;
    const std::vector<std::string> size_keys = {"ops_bytes ",
                                                "state_bytes "};
    // A short prefix of the slice keeps the decoder mutants cheap.
    const std::string prefix = real.entry.ops.substr(
        0, 300 * TraceRecorder::kEventBytes);

    bds::Mutator mut(0x736c6963ULL);
    SystemModel sys(bds::NodeConfig::defaultSim());
    ASSERT_EQ(sys.numCores(), cores);
    std::size_t same = 0, replayed = 0, typed = 0;
    constexpr int kMutants = 2000;
    for (int i = 0; i < kMutants; ++i) {
        const unsigned op = static_cast<unsigned>(mut.below(4));
        const std::string what = "mutant " + std::to_string(i);
        try {
            if (i % 2 == 0) {
                std::string bytes = real.file;
                if (op < 3)
                    mut.mutate(bytes, op);
                else
                    mut.inflateField(bytes, size_keys);
                const CheckpointEntry e = bds::readCheckpoint(
                    std::move(bytes), what, real.key, real.interval);
                TraceRecorder::decode(e.ops, cores, what);
                EXPECT_TRUE(e.state == real.entry.state
                            && e.ops == real.entry.ops)
                    << what << " parsed to a different entry";
                ++same;
            } else {
                CheckpointEntry e = real.entry;
                e.ops = prefix;
                mut.mutate(e.ops, op < 3 ? op : 0);
                const CheckpointEntry back = bds::readCheckpoint(
                    bds::writeCheckpoint(e), what, real.key, real.interval);
                // DMA fills are left out: a checksummed slice comes
                // from the writer, so their sizes are not re-checked.
                TraceRecorder::decode(back.ops, cores, what).replay(sys);
                ++replayed;
            }
        } catch (const Error &e) {
            if (i % 2 == 1) {
                EXPECT_EQ(e.code(), ErrorCode::Io) << what;
            }
            ++typed;
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": untyped " << e.what();
        }
    }
    EXPECT_EQ(same + replayed + typed, static_cast<std::size_t>(kMutants));
    EXPECT_GT(replayed, 0u);
    EXPECT_GT(typed, kMutants / 2u);
}

TEST(CaptureRecordMutation, MutantsParseIdenticallyOrRaise)
{
    const RealEntry real = realEntry("bds_capture_mutation");
    ASSERT_FALSE(real.record.empty());
    const std::vector<std::string> count_keys = {
        "reps ", "workload_bytes ", "intervals ", "total_ops "};

    bds::Mutator mut(0x63617074ULL);
    std::size_t same = 0, typed = 0;
    constexpr int kMutants = 2000;
    for (int i = 0; i < kMutants; ++i) {
        const unsigned op = static_cast<unsigned>(mut.below(4));
        const std::string what = "mutant " + std::to_string(i);
        std::string bytes = real.record;
        if (op < 3)
            mut.mutate(bytes, op);
        else
            mut.inflateField(bytes, count_keys);
        WorkloadCapture cap;
        cap.dataSeed = real.cap.dataSeed;
        try {
            bds::readCaptureRecord(bytes, what, real.key, cap);
            bool identical = cap.numIntervals == real.cap.numIntervals
                && cap.picked.k == real.cap.picked.k
                && cap.picked.totalOps == real.cap.picked.totalOps
                && cap.picked.detailOps == real.cap.picked.detailOps
                && cap.picked.reps.size() == real.cap.picked.reps.size();
            for (std::size_t r = 0; identical && r < cap.picked.reps.size();
                 ++r) {
                const Representative &a = cap.picked.reps[r];
                const Representative &b = real.cap.picked.reps[r];
                identical = a.interval == b.interval
                    && a.cluster == b.cluster
                    && a.clusterSize == b.clusterSize
                    && std::bit_cast<std::uint64_t>(a.weight)
                        == std::bit_cast<std::uint64_t>(b.weight);
            }
            EXPECT_TRUE(identical) << what << " parsed to other picks";
            ++same;
        } catch (const Error &) {
            ++typed;
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": untyped " << e.what();
        }
    }
    EXPECT_EQ(same + typed, static_cast<std::size_t>(kMutants));
    EXPECT_GT(typed, kMutants / 2u);
}

/** readCaptureRecord's error code for `bytes`, ErrorCode::None if it parses. */
ErrorCode
captureCode(const std::string &bytes, const CheckpointKey &key,
            std::uint64_t seed)
{
    WorkloadCapture cap;
    cap.dataSeed = seed;
    try {
        bds::readCaptureRecord(bytes, "test-record", key, cap);
    } catch (const Error &e) {
        return e.code();
    }
    return ErrorCode::None;
}

TEST(CaptureRecord, WriterBytesArePinnedAndRoundTrip)
{
    CheckpointKey key;
    key.configHash = "0123456789abcdef";
    key.machineSlug = "default";
    key.workload = "H-Sort";
    key.node = 1;
    WorkloadCapture cap;
    cap.dataSeed = 99;
    cap.numIntervals = 12;
    cap.picked.k = 2;
    cap.picked.totalOps = 1150;
    cap.picked.detailOps = 200;
    Representative a, b;
    a.interval = 3;
    a.cluster = 1;
    a.clusterSize = 4;
    a.weight = 4.5;
    b.interval = 9;
    b.cluster = 0;
    b.clusterSize = 8;
    b.weight = 0.1;
    cap.picked.reps = {a, b};
    const std::string golden = "BDSCAPTURE 1\n"
                               "hash 0123456789abcdef\n"
                               "slug default\n"
                               "workload_bytes 6\n"
                               "H-Sort"
                               "node 1\n"
                               "seed 99\n"
                               "intervals 12\n"
                               "k 2\n"
                               "total_ops 1150\n"
                               "detail_ops 200\n"
                               "reps 2\n"
                               "rep 3 1 4 4012000000000000\n"
                               "rep 9 0 8 3fb999999999999a\n"
                               "sum 1361142f58074788\n"
                               "END\n";
    EXPECT_EQ(bds::writeCaptureRecord(cap, key), golden);
    WorkloadCapture back;
    back.dataSeed = 99;
    bds::readCaptureRecord(golden, "golden", key, back);
    EXPECT_EQ(back.numIntervals, 12u);
    EXPECT_EQ(back.picked.k, 2u);
    EXPECT_EQ(back.picked.totalOps, 1150u);
    EXPECT_EQ(back.picked.detailOps, 200u);
    ASSERT_EQ(back.picked.reps.size(), 2u);
    EXPECT_EQ(back.picked.reps[1].weight, 0.1);
    EXPECT_EQ(back.picked.reps[1].clusterSize, 8u);

    // The key and the data seed are tripwires.
    CheckpointKey other = key;
    other.node = 0;
    EXPECT_EQ(captureCode(golden, other, 99), ErrorCode::InvalidConfig);
    EXPECT_EQ(captureCode(golden, key, 98), ErrorCode::InvalidConfig);
}

TEST(CaptureRecord, PicksNoPickerMakesAreTypedIo)
{
    // Checksummed records whose picks cannot be a picker's output.
    CheckpointKey key;
    key.configHash = "0123456789abcdef";
    key.machineSlug = "default";
    key.workload = "S-Grep";
    WorkloadCapture good;
    good.numIntervals = 10;
    good.picked.k = 3;
    good.picked.totalOps = 100;
    good.picked.detailOps = 30;
    for (std::size_t i : {1, 4, 7}) {
        Representative r;
        r.interval = i;
        good.picked.reps.push_back(r);
    }
    ASSERT_EQ(captureCode(bds::writeCaptureRecord(good, key), key, 0),
              ErrorCode::None);
    const std::map<std::string, std::function<void(WorkloadCapture &)>>
        broken = {
            {"descending", [](WorkloadCapture &c) {
                 std::swap(c.picked.reps[0], c.picked.reps[2]);
             }},
            {"duplicate", [](WorkloadCapture &c) {
                 c.picked.reps[1].interval = c.picked.reps[0].interval;
             }},
            {"out-of-range", [](WorkloadCapture &c) {
                 c.picked.reps[2].interval = c.numIntervals;
             }},
            {"nan-weight", [](WorkloadCapture &c) {
                 c.picked.reps[0].weight =
                     std::numeric_limits<double>::quiet_NaN();
             }},
            {"infinite-weight", [](WorkloadCapture &c) {
                 c.picked.reps[1].weight =
                     std::numeric_limits<double>::infinity();
             }},
            {"no-reps", [](WorkloadCapture &c) { c.picked.reps.clear(); }},
            {"detail-beyond-total", [](WorkloadCapture &c) {
                 c.picked.detailOps = c.picked.totalOps + 1;
             }},
        };
    for (const auto &[name, breakIt] : broken) {
        WorkloadCapture c = good;
        breakIt(c);
        EXPECT_EQ(captureCode(bds::writeCaptureRecord(c, key), key, 0),
                  ErrorCode::Io)
            << name;
    }
}

} // namespace
