/**
 * @file
 * Counter registry tests: every counter has unique names in each
 * sink, concurrent adds are exact, each add emits exactly one trace
 * event under its registered name, reset() zeroes everything, and
 * the ckptStats() snapshot reads the registry.
 */

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bds {
namespace {

TEST(ObsMetrics, NamesAreUniqueInEverySink)
{
    std::set<std::string> traces, keys, paths;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        const CounterDef &c = kCounters[i];
        EXPECT_EQ(static_cast<std::size_t>(c.id), i) << c.traceName;
        EXPECT_TRUE(traces.insert(c.traceName).second) << c.traceName;
        EXPECT_TRUE(keys.insert(c.statsKey).second) << c.statsKey;
        const auto [group, key] = counters::jsonField(c);
        EXPECT_TRUE(
            paths.insert(std::string(group) + "." + std::string(key))
                .second)
            << c.traceName;
        // Only the serve group sits at the top level of --stats-json.
        const std::string trace = c.traceName;
        EXPECT_EQ(group.empty(), trace.rfind("serve.", 0) == 0)
            << c.traceName;
    }
    EXPECT_EQ(kNumCounters, 32u);
    // A top-level key may not shadow a group object.
    for (const CounterDef &c : kCounters) {
        const std::string group(counters::jsonField(c).first);
        EXPECT_TRUE(group.empty() || keys.count(group) == 0) << group;
    }
}

TEST(ObsMetrics, ConcurrentAddsAreExact)
{
    const std::uint64_t before = counters::value(Counter::StoreHeal);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([] {
            for (int i = 0; i < 100000; ++i)
                counters::add(Counter::StoreHeal);
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(counters::value(Counter::StoreHeal), before + 400000);
}

TEST(ObsMetrics, EachAddEmitsOneTraceEventUnderItsName)
{
    std::ostringstream os;
    Tracer::global().enableStream(&os);
    for (std::size_t i = 0; i < kNumCounters; ++i)
        counters::add(kCounters[i].id, i); // delta 0 is emitted too
    Tracer::global().disable();

    std::istringstream lines(os.str());
    std::size_t n = 0;
    for (std::string line; std::getline(lines, line); ++n) {
        ASSERT_LT(n, kNumCounters) << line;
        const JsonValue ev = parseJson(line);
        EXPECT_EQ(ev.at("ev").asString(), "C");
        EXPECT_EQ(ev.at("name").asString(), kCounters[n].traceName);
        EXPECT_EQ(ev.at("delta").asUint(), n);
    }
    EXPECT_EQ(n, kNumCounters);
}

TEST(ObsMetrics, ResetZeroesEveryCounter)
{
    for (const CounterDef &c : kCounters)
        counters::add(c.id, 3);
    counters::reset();
    counters::forEach([](const CounterDef &c, std::uint64_t v) {
        EXPECT_EQ(v, 0u) << c.traceName;
    });
}

TEST(ObsMetrics, CkptStatsReadsTheRegistry)
{
    counters::reset();
    std::uint64_t n = 1;
    for (const CounterDef &c : kCounters)
        counters::add(c.id, n++);
    const CkptStats s = ckptStats();
    EXPECT_EQ(s.hits, counters::value(Counter::CkptHits));
    EXPECT_EQ(s.misses, counters::value(Counter::CkptMisses));
    EXPECT_EQ(s.writes, counters::value(Counter::CkptWrites));
    EXPECT_EQ(s.fallbacks, counters::value(Counter::CkptFallbacks));
    EXPECT_EQ(s.bytesRead, counters::value(Counter::CkptBytesRead));
    EXPECT_EQ(s.bytesWritten,
              counters::value(Counter::CkptBytesWritten));
    EXPECT_EQ(s.captureHits, counters::value(Counter::CaptureHits));
    EXPECT_EQ(s.captureMisses, counters::value(Counter::CaptureMisses));
    EXPECT_EQ(s.captureWrites, counters::value(Counter::CaptureWrites));
    EXPECT_EQ(s.captureFallbacks,
              counters::value(Counter::CaptureFallbacks));
    counters::reset();
}

} // namespace
} // namespace bds
