/**
 * @file
 * Content-address stability tests: the canonical serialization and
 * FNV hash that key the result store must never move for a fixed
 * configuration without a kConfigHashSchemaVersion bump — a silent
 * change would orphan every cached cell (or worse, alias two
 * different cells). One test pins a fixed config's hash to a literal;
 * the rest check what the hash must and must not depend on.
 */

#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/runconfig.h"
#include "serve/confighash.h"
#include "uarch/machine.h"

namespace bds {
namespace {

/** The fixed config the pinned-hash test uses. */
RunConfig
pinnedConfig()
{
    RunConfig cfg;
    cfg.scaleName = "quick";
    cfg.seed = 42;
    return cfg;
}

TEST(ServeConfigHash, PinnedHashOfAFixedConfig)
{
    // Golden value for schema v2 (v1 pinned 73ec36ad23095195; the
    // machine-geometry line moved every hash). If this test fails you
    // changed the canonical serialization: bump
    // kConfigHashSchemaVersion and re-pin, or revert — never re-pin
    // without a version bump.
    EXPECT_EQ(kConfigHashSchemaVersion, 2u);
    EXPECT_EQ(runConfigHashHex(pinnedConfig()), "0f05f95f1abacd81");
    EXPECT_EQ(runConfigHash(pinnedConfig()), 0x0f05f95f1abacd81ULL);
}

TEST(ServeConfigHash, CanonicalFormIsVersionedAndOrdered)
{
    const std::string text = canonicalRunConfig(pinnedConfig());
    EXPECT_EQ(text.rfind("bds-runconfig-v2\n", 0), 0u) << text;
    EXPECT_NE(text.find("scale=quick\n"), std::string::npos);
    EXPECT_NE(text.find("seed=42\n"), std::string::npos);
    EXPECT_NE(text.find("machine=cores=4 "), std::string::npos);
    EXPECT_NE(text.find("sampling.enabled=0\n"), std::string::npos);
    EXPECT_NE(text.find("recovery.policy=failfast\n"),
              std::string::npos);
    // Deterministic: same config, same bytes.
    EXPECT_EQ(text, canonicalRunConfig(pinnedConfig()));
}

TEST(ServeConfigHash, MachineGeometryChangesTheHash)
{
    // The machine axis is result-relevant: every preset that changes
    // geometry must land in its own cell, and no two presets may
    // alias.
    const std::string base = runConfigHashHex(pinnedConfig());
    std::set<std::string> hashes{base};
    for (const MachinePreset &p : machinePresets()) {
        RunConfig cfg = pinnedConfig();
        cfg.machineSpec = p.name;
        hashes.insert(runConfigHashHex(cfg));
    }
    // "default" collapses onto the base cell; every other preset is
    // distinct from the base and from each other.
    EXPECT_EQ(hashes.size(), machinePresets().size());
}

TEST(ServeConfigHash, EquivalentMachineSpellingsShareTheCell)
{
    // The hash covers the *resolved* geometry, not the spec text:
    // any spelling of the default machine answers from the warm
    // default cell.
    const std::string base = runConfigHashHex(pinnedConfig());

    RunConfig named = pinnedConfig();
    named.machineSpec = "default";
    EXPECT_EQ(runConfigHashHex(named), base);

    RunConfig spelled = pinnedConfig();
    spelled.machineSpec = "cores=4";
    EXPECT_EQ(runConfigHashHex(spelled), base);

    RunConfig sized = pinnedConfig();
    sized.machineSpec = "default,l2=256k";
    EXPECT_EQ(runConfigHashHex(sized), base);

    RunConfig grown = pinnedConfig();
    grown.machineSpec = "l2=512k";
    EXPECT_NE(runConfigHashHex(grown), base);
}

TEST(ServeConfigHash, ThreadsDoNotChangeTheHash)
{
    // docs/THREADING.md: the matrix is bitwise identical at any
    // thread count, so threads must not split the cache.
    RunConfig a = pinnedConfig(), b = pinnedConfig();
    a.parallel.threads = 1;
    b.parallel.threads = 16;
    EXPECT_EQ(runConfigHashHex(a), runConfigHashHex(b));
}

TEST(ServeConfigHash, ObservabilityKnobsDoNotChangeTheHash)
{
    // The neutrality contract: tracing/manifests change no computed
    // result, so they must not split the cache either.
    RunConfig a = pinnedConfig(), b = pinnedConfig();
    b.trace = true;
    b.tracePath = "elsewhere.jsonl";
    b.manifest = false;
    b.tool = "another_tool";
    b.argv = {"another_tool", "--trace"};
    EXPECT_EQ(runConfigHashHex(a), runConfigHashHex(b));
}

TEST(ServeConfigHash, MetricSubsetsShareTheCell)
{
    // Metric subsets are response-time projections of the full
    // 45-column cell, never separate computations.
    RunConfig a = pinnedConfig(), b = pinnedConfig();
    b.metricNames = {"LOAD", "ILP"};
    EXPECT_EQ(runConfigHashHex(a), runConfigHashHex(b));
}

TEST(ServeConfigHash, ServeTransportKnobsDoNotChangeTheHash)
{
    RunConfig a = pinnedConfig(), b = pinnedConfig();
    b.serve.enabled = true;
    b.serve.socketPath = "/tmp/s.sock";
    b.serve.storeDir = "elsewhere";
    b.serve.maxInFlight = 3;
    EXPECT_EQ(runConfigHashHex(a), runConfigHashHex(b));
}

TEST(ServeConfigHash, ResultRelevantKnobsEachChangeTheHash)
{
    const std::string base = runConfigHashHex(pinnedConfig());

    RunConfig scale = pinnedConfig();
    scale.scaleName = "standard";
    EXPECT_NE(runConfigHashHex(scale), base);

    RunConfig seed = pinnedConfig();
    seed.seed = 43;
    EXPECT_NE(runConfigHashHex(seed), base);

    RunConfig sampled = pinnedConfig();
    sampled.sampling.enabled = true;
    EXPECT_NE(runConfigHashHex(sampled), base);

    RunConfig interval = pinnedConfig();
    interval.sampling.intervalUops += 1;
    EXPECT_NE(runConfigHashHex(interval), base);

    RunConfig policy = pinnedConfig();
    policy.fault.recovery.policy = FailPolicy::Quarantine;
    EXPECT_NE(runConfigHashHex(policy), base);

    RunConfig retries = pinnedConfig();
    retries.fault.recovery.maxRetries = 2;
    EXPECT_NE(runConfigHashHex(retries), base);

    // An armed fault spec is a different experiment: it must never
    // be answered from (or poison) the clean cell.
    RunConfig faulted = pinnedConfig();
    faulted.fault.throwAt = "H-Sort";
    EXPECT_NE(runConfigHashHex(faulted), base);
}

/** canonicalMachineText() as it was streamed before it appended. */
std::string
streamedMachineText(const NodeConfig &cfg)
{
    auto cache = [](const CacheConfig &c) {
        std::ostringstream os;
        os << c.sizeBytes << '/' << c.assoc << '/' << c.lineBytes;
        return os.str();
    };
    auto tlb = [](const TlbConfig &t) {
        std::ostringstream os;
        os << t.entries << '/' << t.assoc;
        return os.str();
    };
    std::ostringstream os;
    os << "cores=" << cfg.numCores << " l1i=" << cache(cfg.l1i)
       << " l1d=" << cache(cfg.l1d) << " l2=" << cache(cfg.l2)
       << " l3=" << cache(cfg.l3) << " itlb=" << tlb(cfg.itlb)
       << " dtlb=" << tlb(cfg.dtlb) << " stlb=" << tlb(cfg.stlb)
       << " page=" << cfg.pageBytes << " lat=" << cfg.l2Latency << '/'
       << cfg.l3Latency << '/' << cfg.memLatency << '/'
       << cfg.c2cLatency << '/' << cfg.walkLatency << '/'
       << cfg.stlbHitPenalty << " branch=" << cfg.branchMissPenalty
       << " issue=" << cfg.issueWidth << " history=" << cfg.historyBits
       << " lfb=" << cfg.lfbEntries;
    return os.str();
}

TEST(ServeConfigHash, AppendedMachineTextMatchesTheStreamedOne)
{
    // The canonical text is appended rather than streamed for speed;
    // it must stay byte-identical to the streamed rendering, doubles
    // included, for every preset and for fractional overrides.
    std::vector<NodeConfig> machines;
    for (const MachinePreset &p : machinePresets())
        machines.push_back(resolveMachineSpec(p.name));
    NodeConfig odd = NodeConfig::defaultSim();
    odd.l2Latency = 10.25;
    odd.memLatency = 1234567.0;
    odd.walkLatency = 0.000125;
    odd.branchMissPenalty = 1e-7;
    machines.push_back(odd);
    for (const NodeConfig &m : machines)
        EXPECT_EQ(canonicalMachineText(m), streamedMachineText(m));
}

TEST(ServeConfigHash, HexRenderingIsZeroPaddedLowercase)
{
    EXPECT_EQ(toHex64(0), "0000000000000000");
    EXPECT_EQ(toHex64(0xabcULL), "0000000000000abc");
    EXPECT_EQ(toHex64(0xFFFFFFFFFFFFFFFFULL), "ffffffffffffffff");
}

TEST(ServeConfigHash, Fnv1a64MatchesKnownVectors)
{
    // Standard FNV-1a test vectors (offset basis and "a").
    EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

} // namespace
} // namespace bds
