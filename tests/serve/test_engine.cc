/**
 * @file
 * ServeEngine tests: the serving contract end to end, in process.
 * The expensive quick-scale sweep runs once in a shared fixture;
 * every case asserts against it — miss-then-hit behaviour,
 * byte-identity with the batch path's CSV, row/column projection
 * (the sliced projection pinned byte for byte to the former
 * parse-align-rewrite one, its bounded memos, and four threads on
 * one engine), cache bypass, per-request fault isolation (an
 * injected failure is an error response, never a dead engine), and
 * the serve.* counters.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/csvio.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "fault/inject.h"
#include "metrics/schema.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/confighash.h"
#include "serve/engine.h"
#include "uarch/machine.h"
#include "workloads/registry.h"

namespace bds {
namespace {

using counters::value;

/** The engine's base config: quick scale, cache under TempDir. */
RunConfig
engineConfig(const std::string &cacheName)
{
    RunConfig cfg;
    cfg.tool = "test_engine";
    cfg.scaleName = "quick";
    cfg.seed = 42;
    cfg.manifest = false;
    cfg.serve.enabled = true;
    cfg.serve.storeDir = ::testing::TempDir() + cacheName;
    return cfg;
}

RequestRecord
quickRequest(std::uint64_t seed = 42)
{
    RequestRecord req;
    req.scale = 0; // quick
    req.seed = seed;
    return req;
}

RequestRecord
sampledRequest()
{
    RequestRecord req = quickRequest();
    req.flags |= kServeFlagSampled;
    return req;
}

/**
 * The projection exactly as the engine computed it before projection
 * bases: parse the entry, align its columns, re-emit the selection
 * through writeMetricsCsv. The sliced projection is pinned to it.
 */
std::string
oracleProjection(const std::string &csvBytes, const RequestRecord &req)
{
    const bool all_rows = req.workloadMask == 0xffffffffu;
    if (all_rows && req.metricMask == 0)
        return csvBytes;

    std::istringstream in(csvBytes);
    MetricTable table = readMetricsCsv(in);
    MetricSet set =
        req.metricMask
            ? MetricSet::fromNames(metricNamesFromMask(req.metricMask))
            : MetricSet::tableII();
    Matrix aligned = alignMetricTable(table, set);

    std::vector<std::size_t> rows;
    if (all_rows) {
        for (std::size_t i = 0; i < table.names.size(); ++i)
            rows.push_back(i);
    } else {
        for (const std::string &name :
             workloadNamesFromMask(req.workloadMask))
            for (std::size_t i = 0; i < table.names.size(); ++i)
                if (table.names[i] == name) {
                    rows.push_back(i);
                    break;
                }
    }

    PipelineResult res;
    res.metrics = set;
    res.metricLabels = set.names();
    res.rawMetrics = Matrix(rows.size(), set.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        res.names.push_back(table.names[rows[r]]);
        for (std::size_t c = 0; c < set.size(); ++c)
            res.rawMetrics(r, c) = aligned(rows[r], c);
    }
    std::ostringstream csv;
    writeMetricsCsv(csv, res);
    return csv.str();
}

/** The oracle's payload, or "error: " and the text it raised. */
std::string
oracleAnswer(const std::string &csvBytes, const RequestRecord &req)
{
    try {
        return oracleProjection(csvBytes, req);
    } catch (const FatalError &e) {
        return std::string("error: ") + e.what();
    }
}

/** The engine's payload, or "error: " and its message. */
std::string
engineAnswer(ServeEngine &engine, const RequestRecord &req)
{
    const ServeResponse resp = engine.handle(req);
    return resp.ok ? resp.payload : "error: " + resp.message;
}

/** A seeded projection: random row and column masks, some extreme. */
RequestRecord
randomProjection(Pcg32 &rng, RequestRecord req)
{
    switch (rng.nextBounded(6)) {
    case 0:
        req.workloadMask = 0xffffffffu;
        break;
    case 1:
        req.workloadMask = 1u << rng.nextBounded(32);
        break;
    default:
        req.workloadMask = rng.next();
        break;
    }
    const std::uint64_t all = (std::uint64_t{1} << kNumMetrics) - 1;
    switch (rng.nextBounded(6)) {
    case 0:
        req.metricMask = 0;
        break;
    case 1:
        req.metricMask = std::uint64_t{1} << rng.nextBounded(kNumMetrics);
        break;
    case 2:
        // Bits past the schema, as a binary log may carry them.
        req.metricMask = rng.next64();
        break;
    default:
        req.metricMask = rng.next64() & all;
        break;
    }
    return req;
}

/** Header plus the first `rows` data rows of a metric CSV. */
std::string
firstRows(const std::string &csv, std::size_t rows)
{
    std::size_t at = 0;
    for (std::size_t i = 0; i <= rows; ++i)
        at = csv.find('\n', at) + 1;
    return csv.substr(0, at);
}

/** `csv` without the data row labelled `name`. */
std::string
withoutRow(const std::string &csv, const std::string &name)
{
    const std::size_t at = csv.find("\n" + name + ",") + 1;
    return csv.substr(0, at) + csv.substr(csv.find('\n', at) + 1);
}

/** Wipe a cache directory created by a test (flat *.result files). */
void
wipeCache(const RunConfig &cfg, ServeEngine *engine,
          const std::vector<RequestRecord> &reqs)
{
    for (const RequestRecord &req : reqs) {
        const std::string hash =
            runConfigHashHex(engine->requestConfig(req));
        std::remove(
            (cfg.serve.storeDir + "/" + hash + ".result").c_str());
    }
    std::remove((cfg.serve.storeDir + "/store.index").c_str());
    ::rmdir(cfg.serve.storeDir.c_str());
}

/**
 * One quick-scale sweep + engine shared by the whole suite, so the
 * simulation cost is paid once.
 */
class ServeEngineTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        cfg_ = new RunConfig(engineConfig("bds_engine_cache"));
        engine_ = new ServeEngine(*cfg_);

        // The reference: the batch path's matrix and CSV bytes,
        // computed exactly as bench_common's characterizedPipeline.
        WorkloadRunner runner(NodeConfig::defaultSim(),
                              ScaleProfile::byName("quick"), 42);
        runner.setParallel(cfg_->parallel);
        SweepReport report;
        Matrix metrics = runner.runAll(nullptr, nullptr, &report);
        PipelineResult res;
        res.names = report.survivorNames();
        res.rawMetrics = metrics;
        std::ostringstream csv;
        writeMetricsCsv(csv, res);
        batchCsv_ = new std::string(csv.str());
    }

    static void TearDownTestSuite()
    {
        wipeCache(*cfg_, engine_, {quickRequest(42), sampledRequest()});
        delete engine_;
        delete cfg_;
        delete batchCsv_;
        engine_ = nullptr;
        cfg_ = nullptr;
        batchCsv_ = nullptr;
    }

    static RunConfig *cfg_;
    static ServeEngine *engine_;
    static std::string *batchCsv_;
};

RunConfig *ServeEngineTest::cfg_ = nullptr;
ServeEngine *ServeEngineTest::engine_ = nullptr;
std::string *ServeEngineTest::batchCsv_ = nullptr;

// Cases run in definition order (the binary is one ctest entry), so
// this first one seeds the cache the later cases answer from.
TEST_F(ServeEngineTest, MissComputesThenHitServesTheSameBytes)
{
    const std::uint64_t requests = value(Counter::ServeRequests);
    const std::uint64_t hits = value(Counter::ServeHits);
    const std::uint64_t misses = value(Counter::ServeMisses);
    const ServeResponse cold = engine_->handle(quickRequest());
    ASSERT_TRUE(cold.ok) << cold.message;
    EXPECT_FALSE(cold.hit);
    EXPECT_EQ(cold.hashHex,
              runConfigHashHex(engine_->requestConfig(quickRequest())));

    const ServeResponse warm = engine_->handle(quickRequest());
    ASSERT_TRUE(warm.ok) << warm.message;
    EXPECT_TRUE(warm.hit);
    EXPECT_EQ(warm.payload, cold.payload);

    EXPECT_EQ(value(Counter::ServeRequests), requests + 2);
    EXPECT_EQ(value(Counter::ServeHits), hits + 1);
    EXPECT_EQ(value(Counter::ServeMisses), misses + 1);
}

TEST_F(ServeEngineTest, PayloadIsByteIdenticalToTheBatchPath)
{
    const ServeResponse resp = engine_->handle(quickRequest());
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.payload, *batchCsv_);
}

TEST_F(ServeEngineTest, ProjectionSelectsRowsAndColumns)
{
    RequestRecord req = parseRequestLine(
        "characterize scale=quick seed=42 "
        "workloads=H-Sort,S-Grep metrics=LOAD,ILP");
    const ServeResponse resp = engine_->handle(req);
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_TRUE(resp.hit); // projections answer from the same cell

    std::istringstream in(resp.payload);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "workload,LOAD,ILP");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("H-Sort,", 0), 0u) << line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("S-Grep,", 0), 0u) << line;
    EXPECT_FALSE(std::getline(in, line));

    // The projected cells match the full payload's columns.
    const ServeResponse full = engine_->handle(quickRequest());
    std::istringstream fullIn(full.payload);
    MetricTable table = readMetricsCsv(fullIn);
    std::istringstream projIn(resp.payload);
    MetricTable proj = readMetricsCsv(projIn);
    ASSERT_EQ(proj.names.size(), 2u);
    for (std::size_t r = 0; r < proj.names.size(); ++r) {
        std::size_t fullRow = 0;
        while (table.names[fullRow] != proj.names[r])
            ++fullRow;
        for (std::size_t c = 0; c < proj.columns.size(); ++c) {
            std::size_t fullCol = 0;
            while (table.columns[fullCol] != proj.columns[c])
                ++fullCol;
            EXPECT_EQ(proj.values(r, c), table.values(fullRow, fullCol));
        }
    }
}

TEST_F(ServeEngineTest, BypassComputesWithoutTouchingTheStore)
{
    RequestRecord req = quickRequest();
    req.flags |= kServeFlagBypass;
    const std::uint64_t bypassed = value(Counter::ServeBypass);
    const ServeResponse resp = engine_->handle(req);
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_FALSE(resp.hit);
    EXPECT_EQ(resp.payload, *batchCsv_);
    EXPECT_EQ(value(Counter::ServeBypass), bypassed + 1);
}

TEST_F(ServeEngineTest, InvalidRequestsAreErrorResponses)
{
    RequestRecord req = quickRequest();
    req.op = 99;
    const ServeResponse resp = engine_->handle(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, ErrorCode::InvalidConfig);

    RequestRecord badScale = quickRequest();
    badScale.scale = 7;
    const ServeResponse resp2 = engine_->handle(badScale);
    EXPECT_FALSE(resp2.ok);
    EXPECT_EQ(resp2.code, ErrorCode::InvalidConfig);

    // The engine keeps serving after errors.
    const ServeResponse after = engine_->handle(quickRequest());
    EXPECT_TRUE(after.ok);
    EXPECT_TRUE(after.hit);
}

TEST_F(ServeEngineTest, CountersTrackRequestsHitsAndMisses)
{
    std::ostringstream trace;
    Tracer::global().enableStream(&trace);
    const ServeResponse hit = engine_->handle(quickRequest());
    EXPECT_TRUE(hit.ok);
    RequestRecord bad = quickRequest();
    bad.op = 99;
    engine_->handle(bad);
    Tracer::global().disable();

    const std::string events = trace.str();
    EXPECT_NE(events.find("\"serve.requests\""), std::string::npos)
        << events;
    EXPECT_NE(events.find("\"serve.hits\""), std::string::npos)
        << events;
    EXPECT_NE(events.find("\"serve.errors\""), std::string::npos)
        << events;
}

/**
 * Store `csv` as the entry a quick request with `seed` is served
 * from (no sweep runs), returning that request.
 */
RequestRecord
pokeEntry(ServeEngine &engine, std::uint64_t seed, const std::string &csv)
{
    const RequestRecord req = quickRequest(seed);
    ResultEntry entry;
    entry.hashHex = engine.cellHash(req);
    entry.canonicalConfig = canonicalRunConfig(engine.requestConfig(req));
    entry.csv = csv;
    entry.manifestJson = "{}\n";
    EXPECT_TRUE(engine.store().store(entry));
    return req;
}

/** Remove the entries pokeEntry() stored for `seeds`. */
void
unpoke(ServeEngine &engine, const std::vector<std::uint64_t> &seeds)
{
    for (std::uint64_t seed : seeds)
        std::remove(engine.store()
                        .entryPath(engine.cellHash(quickRequest(seed)))
                        .c_str());
}

TEST_F(ServeEngineTest, SlicedProjectionMatchesTheOracle)
{
    const std::string full = engine_->handle(quickRequest()).payload;
    const ServeResponse sampledResp = engine_->handle(sampledRequest());
    ASSERT_TRUE(sampledResp.ok) << sampledResp.message;
    const std::string sampled = sampledResp.payload;
    ASSERT_NE(full, sampled);

    // A cell that lacks one workload, as a quarantined sweep would.
    const std::string lacking = withoutRow(full, "H-Sort");
    const RequestRecord lackingReq = pokeEntry(*engine_, 4242, lacking);

    const std::uint64_t sseFp =
        std::uint64_t{1} << metricIndexByName("SSE FP");
    const std::uint32_t hSort = 1u << 0;
    ASSERT_EQ(allWorkloads()[0].name(), "H-Sort");

    struct Case
    {
        std::uint32_t rows;
        std::uint64_t metrics;
    };
    const Case edges[] = {
        {0xffffffffu, 0},       // the all/all fast path
        {0x0000f00fu, 0},       // metric mask 0 with a row subset
        {0xffffffffu, 1},       // a single metric, every row
        {0x00000003u, sseFp},   // SSE FP
        {hSort | 0x30u, sseFp | 1}, // a workload absent below
        {0, 0},                 // no rows at all
        {0x5u, std::uint64_t{1} << 60}, // only bits past the schema
    };
    auto check = [&](const std::string &csv, RequestRecord req) {
        EXPECT_EQ(engineAnswer(*engine_, req), oracleAnswer(csv, req))
            << formatRequestLine(req) << " mask " << req.metricMask;
    };
    for (const Case &c : edges)
        for (RequestRecord req :
             {quickRequest(), sampledRequest(), lackingReq}) {
            req.workloadMask = c.rows;
            req.metricMask = c.metrics;
            const std::string &csv =
                req.seed == 4242
                    ? lacking
                    : (req.flags & kServeFlagSampled ? sampled : full);
            check(csv, req);
        }

    Pcg32 rng(0x70726f6aULL);
    constexpr int kPairs = 2000;
    for (int i = 0; i < kPairs; ++i) {
        const int pick = i % 3;
        const RequestRecord base =
            pick == 0 ? quickRequest()
                      : (pick == 1 ? sampledRequest() : lackingReq);
        check(pick == 0 ? full : (pick == 1 ? sampled : lacking),
              randomProjection(rng, base));
    }
    unpoke(*engine_, {4242});
}

TEST_F(ServeEngineTest, ProjectionErrorsMatchTheOracle)
{
    const std::string full = engine_->handle(quickRequest()).payload;
    const std::string head = full.substr(0, full.find('\n'));

    // A duplicated column: "LOAD" renamed onto its neighbour.
    std::string dup = full;
    const std::size_t second = head.find(",", head.find(",LOAD,") + 1);
    dup.replace(second + 1, head.find(',', second + 1) - second - 1, "LOAD");
    // A missing column: "ILP" renamed to something no schema knows.
    std::string missing = full;
    missing.replace(head.find(",ILP,") + 1, 3, "XYZ");

    RequestRecord req = pokeEntry(*engine_, 4343, dup);
    req.workloadMask = 0x3u;
    const std::string dupAnswer = engineAnswer(*engine_, req);
    EXPECT_EQ(dupAnswer, oracleAnswer(dup, req));
    EXPECT_NE(dupAnswer.find("twice"), std::string::npos) << dupAnswer;

    req = pokeEntry(*engine_, 4344, missing);
    req.workloadMask = 0x3u;
    req.metricMask = 0;
    const std::string missAnswer = engineAnswer(*engine_, req);
    EXPECT_EQ(missAnswer, oracleAnswer(missing, req));
    EXPECT_NE(missAnswer.find("lacks"), std::string::npos) << missAnswer;
    // A selection that avoids the missing column still answers.
    req.metricMask = std::uint64_t{1} << metricIndexByName("LOAD");
    EXPECT_EQ(engineAnswer(*engine_, req), oracleAnswer(missing, req));
    unpoke(*engine_, {4343, 4344});
}

TEST_F(ServeEngineTest, RewrittenEntryNeverGetsAStaleBasis)
{
    const std::string full = engine_->handle(quickRequest()).payload;
    const std::string before = firstRows(full, 6);
    // Same hash, same length, different bytes: one digit changed.
    std::string after = before;
    const std::size_t digit = after.find_first_of("123456789",
                                                  after.find('\n'));
    after[digit] = after[digit] == '9' ? '8' : '9';

    RequestRecord req = pokeEntry(*engine_, 4444, before);
    req.workloadMask = 0x3fu;
    req.metricMask = 0x1fu;
    EXPECT_EQ(engineAnswer(*engine_, req), oracleAnswer(before, req));

    pokeEntry(*engine_, 4444, after);
    const std::string answer = engineAnswer(*engine_, req);
    EXPECT_EQ(answer, oracleAnswer(after, req));
    EXPECT_NE(answer, oracleAnswer(before, req));
    unpoke(*engine_, {4444});
}

TEST_F(ServeEngineTest, BasesAndHashMemoStayWithinTheirBound)
{
    const std::string small =
        firstRows(engine_->handle(quickRequest()).payload, 3);
    const std::size_t cap = ServeEngine::kMemoCapacity;
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t seed = 5000; seed < 5000 + 2 * cap; ++seed) {
        RequestRecord req = pokeEntry(*engine_, seed, small);
        seeds.push_back(seed);
        req.workloadMask = 0x7u;
        req.metricMask = 0x3u;
        EXPECT_EQ(engineAnswer(*engine_, req), oracleAnswer(small, req));
        EXPECT_LE(engine_->cachedBases(), cap);
        EXPECT_LE(engine_->cachedHashes(), cap);
    }
    EXPECT_EQ(engine_->cachedBases(), cap);
    EXPECT_EQ(engine_->cachedHashes(), cap);
    // Evicted cells rebuild their basis and still answer exactly.
    RequestRecord first = quickRequest(5000);
    first.workloadMask = 0x5u;
    EXPECT_EQ(engineAnswer(*engine_, first), oracleAnswer(small, first));
    unpoke(*engine_, seeds);
}

TEST_F(ServeEngineTest, FourThreadsProjectOnOneEngine)
{
    const std::string full = engine_->handle(quickRequest()).payload;
    Pcg32 rng(0x74687264ULL);
    std::vector<RequestRecord> reqs;
    std::vector<std::string> want;
    for (int i = 0; i < 48; ++i) {
        reqs.push_back(randomProjection(rng, quickRequest()));
        want.push_back(oracleAnswer(full, reqs.back()));
    }
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t k = 0; k < 3 * reqs.size(); ++k) {
                const std::size_t i = (k * 7 + t * 13) % reqs.size();
                if (engineAnswer(*engine_, reqs[i]) != want[i])
                    ++wrong;
            }
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(wrong.load(), 0);
}

TEST_F(ServeEngineTest, CellHashIsTheMemoizedConfigHash)
{
    Pcg32 rng(0x68617368ULL);
    for (std::uint32_t scale = 0; scale < 3; ++scale)
        for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{7},
                                   std::uint64_t{42}, std::uint64_t{1} << 40})
            for (std::uint32_t machine = 0;
                 machine < machinePresets().size(); ++machine)
                for (std::uint32_t sampled = 0; sampled < 2; ++sampled) {
                    RequestRecord req = quickRequest(seed);
                    req.scale = scale;
                    req.machine = machine;
                    if (sampled)
                        req.flags |= kServeFlagSampled;
                    const std::string want =
                        runConfigHashHex(engine_->requestConfig(req));
                    EXPECT_EQ(engine_->cellHash(req), want);
                    // Masks and bypass never change the cell.
                    RequestRecord varied = randomProjection(rng, req);
                    varied.flags |= kServeFlagBypass;
                    EXPECT_EQ(engine_->cellHash(varied), want);
                    EXPECT_EQ(engine_->cellHash(req), want);
                    EXPECT_LE(engine_->cachedHashes(),
                              ServeEngine::kMemoCapacity);
                }
    // An invalid record raises, as requestConfig() does.
    RequestRecord bad = quickRequest();
    bad.scale = 9;
    EXPECT_THROW(engine_->cellHash(bad), Error);
}

TEST(ServeEngineFault, InjectedFaultIsQuarantinedPerRequest)
{
    // A separate engine whose base config arms quarantine + a
    // deterministic injected failure, as BDS_FAULT_THROW=H-Sort
    // BDS_FAIL_POLICY=quarantine would.
    RunConfig cfg = engineConfig("bds_engine_fault_cache");
    cfg.fault.throwAt = "H-Sort";
    cfg.fault.recovery.policy = FailPolicy::Quarantine;
    FaultInjector::global().arm(cfg.fault);
    ServeEngine engine(cfg);

    const ServeResponse resp = engine.handle(quickRequest(7));
    FaultInjector::global().disarm();

    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.quarantined,
              (std::vector<std::string>{"H-Sort"}));
    // Survivors are served, the quarantined row is absent...
    EXPECT_EQ(resp.payload.find("H-Sort,"), std::string::npos);
    EXPECT_NE(resp.payload.find("H-WordCount,"), std::string::npos);
    // ...and the incomplete cell was never cached.
    ResultEntry out;
    EXPECT_FALSE(engine.store().load(resp.hashHex, &out));

    // The engine survives and keeps answering.
    RunConfig clean = engineConfig("bds_engine_fault_cache");
    ServeEngine cleanEngine(clean);
    const ServeResponse after = cleanEngine.handle(quickRequest(7));
    EXPECT_TRUE(after.ok) << after.message;

    wipeCache(clean, &cleanEngine, {quickRequest(7)});
}

TEST(ServeEngineOverload, QueueFullComputesAreShedWithTypedErrors)
{
    // One compute slot, zero queue slots: a compute arriving while
    // the slot is busy must be shed immediately with the typed
    // Overloaded error — not queued, not crashed.
    RunConfig cfg = engineConfig("bds_engine_shed_cache");
    cfg.serve.maxInFlight = 1;
    cfg.serve.maxQueue = 0;
    cfg.serve.bypassStore = true; // every request is a compute
    cfg.fault.stallAt = "H-Sort"; // pin the slot busy for 500 ms
    cfg.fault.stallMs = 500;
    FaultInjector::global().arm(cfg.fault);
    ServeEngine engine(cfg);

    std::thread slow([&] {
        const ServeResponse r = engine.handle(quickRequest(3));
        EXPECT_TRUE(r.ok) << r.message;
    });
    // The stalled sweep cannot finish before its 500 ms stall; at
    // 100 ms the slot is reliably busy.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::uint64_t bypassed = value(Counter::ServeBypass);
    const std::uint64_t shedCount = value(Counter::ServeShed);
    const std::uint64_t errors = value(Counter::ServeErrors);
    std::ostringstream trace;
    Tracer::global().enableStream(&trace);
    const ServeResponse shed = engine.handle(quickRequest(4));
    Tracer::global().disable();
    // The shed request is counted once in each of the registry and
    // the trace: a bypass is counted where it is decided, before the
    // admission queue sheds it.
    EXPECT_EQ(value(Counter::ServeBypass), bypassed + 1);
    EXPECT_EQ(value(Counter::ServeShed), shedCount + 1);
    EXPECT_EQ(value(Counter::ServeErrors), errors + 1);
    std::size_t bypassEvents = 0;
    std::istringstream lines(trace.str());
    for (std::string line; std::getline(lines, line);)
        if (line.find("\"ev\":\"C\"") != std::string::npos
            && line.find("\"name\":\"serve.bypass\",\"delta\":1}")
                != std::string::npos)
            ++bypassEvents;
    EXPECT_EQ(bypassEvents, 1u) << trace.str();
    slow.join();
    FaultInjector::global().disarm();

    EXPECT_FALSE(shed.ok);
    EXPECT_EQ(shed.code, ErrorCode::Overloaded);
    EXPECT_EQ(std::string(errorCodeName(shed.code)), "overloaded");
    EXPECT_NE(shed.message.find("max_queue=0"), std::string::npos)
        << shed.message;

    // Shedding is load control, not a latch: the engine answers the
    // next request once the storm passes.
    const ServeResponse after = engine.handle(quickRequest(5));
    EXPECT_TRUE(after.ok) << after.message;
    wipeCache(cfg, &engine, {});
}

TEST(ServeEngineFault, FailFastInjectionIsAnErrorResponse)
{
    RunConfig cfg = engineConfig("bds_engine_failfast_cache");
    cfg.fault.throwAt = "H-Sort"; // policy stays fail-fast
    FaultInjector::global().arm(cfg.fault);
    ServeEngine engine(cfg);

    const std::uint64_t errors = value(Counter::ServeErrors);
    const ServeResponse resp = engine.handle(quickRequest(7));
    FaultInjector::global().disarm();

    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, ErrorCode::InjectedFault);
    // Nothing cached, engine still alive.
    ResultEntry out;
    EXPECT_FALSE(engine.store().load(resp.hashHex, &out));
    EXPECT_EQ(value(Counter::ServeErrors), errors + 1);

    wipeCache(cfg, &engine, {});
}

} // namespace
} // namespace bds
