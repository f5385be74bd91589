/**
 * @file
 * The JSON layer and the manifest reader as fuzz targets: obs_check
 * feeds every manifest and trace line it is given through
 * parseJson(), so any byte string must either parse or raise the
 * typed FatalError — never crash, hang or throw anything else. Seeded
 * byte-level mutants of a real manifest and of real trace lines
 * (tests/mutator.h), plus the nesting-depth regression.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/log.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "../mutator.h"

namespace bds {
namespace {

/** A manifest as a quarantining, checkpointed sampled run writes it. */
std::string
realManifest()
{
    RunManifest m;
    m.tool = "repro";
    m.version = bdsVersion();
    m.created = "2026-08-05T12:34:56Z";
    m.argv = {"repro", "table4", "--scale", "quick"};
    m.config.tool = "repro";
    m.config.scaleName = "quick";
    m.config.seed = 42;
    m.config.parallel.threads = 4;
    m.config.metricNames = {"IPC", "L3_MPKI"};
    m.config.sampling.enabled = true;
    m.config.machineSpec = "westmere,l2=512k";
    m.config.trace = true;
    m.config.tracePath = "repro.trace.jsonl";
    m.config.ckpt.enabled = true;
    m.config.ckpt.dir = "ckpt";
    m.config.fault.recovery.policy = FailPolicy::Quarantine;
    m.config.fault.recovery.maxRetries = 1;
    m.config.fault.throwAt = "H-Grep";
    m.stages = {{"characterize", 1.25}, {"analyze", 0.03125}};
    m.wallSeconds = 1.5;
    m.peakRssKb = 4096;
    m.artifacts = {"bds_serve_cache/0f05f95f1abacd81.result"};
    m.failures = {RunRecord{"H-Grep", RunStatus::Quarantined, 2,
                            ErrorCode::InjectedFault,
                            "injected exception in workload H-Grep",
                            0.5}};
    m.quarantined = {"H-Grep"};
    std::ostringstream os;
    writeRunManifest(os, m);
    return os.str();
}

/** Lines of a real trace: a span with attributes, a counter, a gauge. */
const char *const kTraceLines[] = {
    "{\"ev\":\"M\",\"tool\":\"repro\",\"version\":\"1.0.0\",\"t_us\":0}",
    "{\"ev\":\"B\",\"id\":7,\"parent\":5,\"tid\":0,\"t_us\":3049,"
    "\"name\":\"bic.k\",\"attrs\":{\"k\":3}}",
    "{\"ev\":\"E\",\"id\":7,\"tid\":0,\"t_us\":3101,\"name\":\"bic.k\","
    "\"dur_us\":52}",
    "{\"ev\":\"C\",\"tid\":1,\"t_us\":812,\"name\":\"store.publish\","
    "\"delta\":1}",
    "{\"ev\":\"G\",\"tid\":0,\"t_us\":900,\"name\":\"rss_mb\","
    "\"value\":24.5}",
};

/**
 * Parse every mutant of `seed` with `parse`; each must succeed or
 * raise FatalError. Returns how many parsed.
 */
template <typename Parse>
std::size_t
fuzz(const std::string &seed, std::uint64_t rngSeed, int mutants,
     Parse parse)
{
    Mutator mut(rngSeed);
    std::size_t parsed = 0;
    for (int i = 0; i < mutants; ++i) {
        std::string bytes = seed;
        mut.mutate(bytes, static_cast<unsigned>(mut.below(3)));
        try {
            parse(bytes);
            ++parsed;
        } catch (const FatalError &) {
            // The typed rejection.
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << " threw " << e.what()
                          << ":\n" << bytes;
        }
    }
    return parsed;
}

TEST(ObsJson, DeepNestingIsATypedErrorNotAStackOverflow)
{
    // A long run of '[' used to recurse once per byte and overflow
    // the stack; it is now a FatalError, unterminated or not.
    EXPECT_THROW(parseJson(std::string(100000, '[')), FatalError);
    EXPECT_THROW(parseJson(std::string(100000, '[')
                           + std::string(100000, ']')),
                 FatalError);
    EXPECT_THROW(parseJson(std::string(100000, '{')), FatalError);

    // The bound itself: kMaxJsonDepth levels parse, one more raises.
    const std::string ok = std::string(kMaxJsonDepth, '[')
        + std::string(kMaxJsonDepth, ']');
    EXPECT_NO_THROW(parseJson(ok));
    const std::string deep = std::string(kMaxJsonDepth + 1, '[')
        + std::string(kMaxJsonDepth + 1, ']');
    try {
        parseJson(deep);
        FAIL() << "expected a FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("nesting"),
                  std::string::npos)
            << e.what();
    }

    // Depth counts open containers, not containers seen: a long flat
    // array of arrays is fine.
    std::string flat = "[";
    for (std::size_t i = 0; i < 4 * kMaxJsonDepth; ++i)
        flat += i ? ",[]" : "[]";
    flat += "]";
    EXPECT_EQ(parseJson(flat).asArray().size(), 4 * kMaxJsonDepth);
}

TEST(ObsJsonMutation, ManifestMutantsParseOrRaiseFatal)
{
    const std::string seed = realManifest();
    ASSERT_NO_THROW(parseJson(seed));
    const std::size_t parsed =
        fuzz(seed, 0x6a736f6eULL, 2000,
             [](const std::string &b) { parseJson(b); });
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, 2000u);
}

TEST(ObsJsonMutation, TraceLineMutantsParseOrRaiseFatal)
{
    std::size_t parsed = 0;
    std::uint64_t rngSeed = 0x74726163ULL;
    for (const char *line : kTraceLines) {
        ASSERT_NO_THROW(parseJson(line)) << line;
        parsed += fuzz(line, rngSeed++, 400,
                       [](const std::string &b) { parseJson(b); });
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, 2000u);
}

TEST(ObsManifestMutation, MutantsParseOrRaiseFatal)
{
    const std::string seed = realManifest();
    {
        std::istringstream is(seed);
        ASSERT_NO_THROW(parseRunManifest(is));
    }
    const std::size_t parsed =
        fuzz(seed, 0x6d616e69ULL, 2000, [](const std::string &b) {
            std::istringstream is(b);
            parseRunManifest(is);
        });
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, 2000u);
}

} // namespace
} // namespace bds
