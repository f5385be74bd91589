/**
 * @file
 * RunConfig resolution tests: BDS_* environment parsing, --flag
 * handling (including --flag=value), precedence (defaults, then env,
 * then flags), strict numeric parsing, and the resolved default
 * paths for trace and manifest output.
 */

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.h"
#include "obs/runconfig.h"

namespace bds {
namespace {

const char *const kEnvVars[] = {
    "BDS_SCALE",         "BDS_SEED",        "BDS_THREADS",
    "BDS_METRICS",       "BDS_SAMPLE",      "BDS_SAMPLE_INTERVAL",
    "BDS_SAMPLE_BBV",    "BDS_SAMPLE_KMAX", "BDS_SAMPLE_WARMUP",
    "BDS_SAMPLE_SEED",   "BDS_TRACE",       "BDS_TRACE_FILE",
    "BDS_MANIFEST",      "BDS_FAIL_POLICY", "BDS_RETRIES",
    "BDS_RUN_TIMEOUT_MS", "BDS_FAULT_THROW", "BDS_FAULT_STALL",
    "BDS_FAULT_CORRUPT", "BDS_FAULT_ALLOC", "BDS_FAULT_STALL_MS",
    "BDS_FAULT_ATTEMPTS", "BDS_SERVE_SOCKET", "BDS_SERVE_CACHE",
    "BDS_SERVE_MAX_INFLIGHT", "BDS_SERVE_BYPASS", "BDS_SERVE_LOG",
    "BDS_MACHINE",       "BDS_CKPT",        "BDS_CKPT_DIR",
    "BDS_FAULT_IO",      "BDS_SERVE_MAX_QUEUE",
    "BDS_STORE_MAX_BYTES", "BDS_CKPT_MAX_BYTES",
};

/** Clears every BDS_* variable for the test, restoring it after. */
class ObsRunConfigTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        for (const char *name : kEnvVars) {
            if (const char *v = std::getenv(name))
                saved_[name] = v;
            ::unsetenv(name);
        }
    }

    void TearDown() override
    {
        for (const char *name : kEnvVars) {
            auto it = saved_.find(name);
            if (it != saved_.end())
                ::setenv(name, it->second.c_str(), 1);
            else
                ::unsetenv(name);
        }
    }

    std::map<std::string, std::string> saved_;
};

TEST_F(ObsRunConfigTest, DefaultsWithACleanEnvironment)
{
    RunConfig cfg = RunConfig::resolve("toolname");
    EXPECT_EQ(cfg.tool, "toolname");
    EXPECT_EQ(cfg.scaleName, "standard");
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_EQ(cfg.parallel.threads, 0u);
    EXPECT_TRUE(cfg.metricNames.empty());
    EXPECT_FALSE(cfg.sampling.enabled);
    EXPECT_FALSE(cfg.trace);
    EXPECT_TRUE(cfg.manifest);
    EXPECT_EQ(cfg.resolvedTracePath(), "toolname.trace.jsonl");
    EXPECT_EQ(cfg.resolvedManifestPath(), "toolname.manifest.json");
}

TEST_F(ObsRunConfigTest, EnvironmentOverlaysEveryKnob)
{
    ::setenv("BDS_SCALE", "full", 1);
    ::setenv("BDS_SEED", "7", 1);
    ::setenv("BDS_THREADS", "5", 1);
    ::setenv("BDS_METRICS", "IPC,L3_MPKI", 1);
    ::setenv("BDS_SAMPLE", "1", 1);
    ::setenv("BDS_SAMPLE_INTERVAL", "12345", 1);
    ::setenv("BDS_SAMPLE_BBV", "16", 1);
    ::setenv("BDS_SAMPLE_KMAX", "4", 1);
    ::setenv("BDS_SAMPLE_WARMUP", "2", 1);
    ::setenv("BDS_SAMPLE_SEED", "11", 1);
    ::setenv("BDS_TRACE", "1", 1);

    RunConfig cfg = RunConfig::resolve("t");
    EXPECT_EQ(cfg.scaleName, "full");
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_EQ(cfg.parallel.threads, 5u);
    EXPECT_EQ(cfg.metricNames,
              (std::vector<std::string>{"IPC", "L3_MPKI"}));
    EXPECT_TRUE(cfg.sampling.enabled);
    EXPECT_EQ(cfg.sampling.intervalUops, 12345u);
    EXPECT_EQ(cfg.sampling.bbvDims, 16u);
    EXPECT_EQ(cfg.sampling.kMax, 4u);
    EXPECT_EQ(cfg.sampling.warmupIntervals, 2u);
    EXPECT_EQ(cfg.sampling.seed, 11u);
    EXPECT_TRUE(cfg.trace);
}

TEST_F(ObsRunConfigTest, MachineSpecTravelsAsAnOpaqueString)
{
    // obs stores the spec without resolving it (the registry lives
    // above this layer, in bds_uarch); defaults, env, flag and
    // flag-beats-env behavior match every other knob.
    EXPECT_EQ(RunConfig::resolve("t").machineSpec, "default");

    ::setenv("BDS_MACHINE", "westmere", 1);
    EXPECT_EQ(RunConfig::resolve("t").machineSpec, "westmere");

    RunConfig cfg;
    cfg.tool = "t";
    cfg.applyEnv();
    cfg.applyArgs({"--machine", "l3-4m"});
    EXPECT_EQ(cfg.machineSpec, "l3-4m");

    RunConfig eq;
    eq.applyArgs({"--machine=default,l2=512k"});
    EXPECT_EQ(eq.machineSpec, "default,l2=512k");

    // An empty spec is a config error, not a silent default.
    ::setenv("BDS_MACHINE", "", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_MACHINE");
    EXPECT_THROW(cfg.applyArgs({"--machine", ""}), FatalError);

    // Non-default specs surface in the one-line run description.
    RunConfig shown;
    shown.machineSpec = "westmere";
    EXPECT_NE(shown.describe().find("machine=westmere"),
              std::string::npos);
    RunConfig quiet;
    EXPECT_EQ(quiet.describe().find("machine="), std::string::npos);
}

TEST_F(ObsRunConfigTest, TraceFileImpliesTracing)
{
    ::setenv("BDS_TRACE_FILE", "/tmp/run.jsonl", 1);
    RunConfig cfg = RunConfig::resolve("t");
    EXPECT_TRUE(cfg.trace);
    EXPECT_EQ(cfg.resolvedTracePath(), "/tmp/run.jsonl");
}

TEST_F(ObsRunConfigTest, ManifestSwitchTakesZeroOneOrAPath)
{
    ::setenv("BDS_MANIFEST", "0", 1);
    EXPECT_FALSE(RunConfig::resolve("t").manifest);

    ::setenv("BDS_MANIFEST", "1", 1);
    RunConfig on = RunConfig::resolve("t");
    EXPECT_TRUE(on.manifest);
    EXPECT_EQ(on.resolvedManifestPath(), "t.manifest.json");

    ::setenv("BDS_MANIFEST", "out/custom.json", 1);
    RunConfig custom = RunConfig::resolve("t");
    EXPECT_TRUE(custom.manifest);
    EXPECT_EQ(custom.resolvedManifestPath(), "out/custom.json");
}

TEST_F(ObsRunConfigTest, MalformedEnvironmentValuesAreFatal)
{
    ::setenv("BDS_SEED", "abc", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_SEED");

    ::setenv("BDS_SCALE", "huge", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_SCALE");

    ::setenv("BDS_SAMPLE", "yes", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_SAMPLE");

    ::setenv("BDS_SAMPLE_INTERVAL", "0", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_SAMPLE_INTERVAL");

    ::setenv("BDS_METRICS", "IPC,,L3_MPKI", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);

    ::setenv("BDS_METRICS", "IPC,", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
}

TEST_F(ObsRunConfigTest, StrictUintParsing)
{
    EXPECT_EQ(detail::parseUint("x", "0"), 0u);
    EXPECT_EQ(detail::parseUint("x", "12345"), 12345u);
    EXPECT_THROW(detail::parseUint("x", ""), FatalError);
    EXPECT_THROW(detail::parseUint("x", "-1"), FatalError);
    EXPECT_THROW(detail::parseUint("x", "+1"), FatalError);
    EXPECT_THROW(detail::parseUint("x", " 1"), FatalError);
    EXPECT_THROW(detail::parseUint("x", "1x"), FatalError);
    EXPECT_THROW(detail::parseUint("x", "0x10"), FatalError);
    EXPECT_THROW(detail::parseUint("x", "99999999999999999999999"),
                 FatalError);
}

TEST_F(ObsRunConfigTest, FlagsInBothFormsAndLeftoversInOrder)
{
    RunConfig cfg;
    cfg.tool = "t";
    std::vector<std::string> rest = cfg.applyArgs(
        {"positional1", "--scale", "quick", "--seed=9",
         "--threads", "2", "--metrics=IPC", "--sampled", "--trace",
         "--unknown-flag", "positional2"});
    EXPECT_EQ(cfg.scaleName, "quick");
    EXPECT_EQ(cfg.seed, 9u);
    EXPECT_EQ(cfg.parallel.threads, 2u);
    EXPECT_EQ(cfg.metricNames, (std::vector<std::string>{"IPC"}));
    EXPECT_TRUE(cfg.sampling.enabled);
    EXPECT_TRUE(cfg.trace);
    EXPECT_EQ(rest,
              (std::vector<std::string>{"positional1",
                                        "--unknown-flag",
                                        "positional2"}));
}

TEST_F(ObsRunConfigTest, FlagsWinOverTheEnvironment)
{
    ::setenv("BDS_SCALE", "full", 1);
    ::setenv("BDS_TRACE", "1", 1);
    RunConfig cfg;
    cfg.tool = "t";
    cfg.applyEnv();
    cfg.applyArgs({"--scale", "quick", "--no-trace"});
    EXPECT_EQ(cfg.scaleName, "quick");
    EXPECT_FALSE(cfg.trace);
}

TEST_F(ObsRunConfigTest, FlagValueErrorsAreFatal)
{
    RunConfig cfg;
    EXPECT_THROW(cfg.applyArgs({"--seed"}), FatalError);
    EXPECT_THROW(cfg.applyArgs({"--seed", "nine"}), FatalError);
    EXPECT_THROW(cfg.applyArgs({"--scale=planetary"}), FatalError);
}

TEST_F(ObsRunConfigTest, ResolveRejectsUnconsumedArguments)
{
    const char *argv[] = {"tool", "--seed", "1", "stray"};
    EXPECT_THROW(RunConfig::resolve("tool", 4,
                                    const_cast<char **>(argv)),
                 FatalError);
}

TEST_F(ObsRunConfigTest, ResolveCapturesTheCommandLine)
{
    const char *argv[] = {"tool", "--trace-file=t.jsonl",
                          "--manifest", "m.json"};
    RunConfig cfg =
        RunConfig::resolve("tool", 4, const_cast<char **>(argv));
    EXPECT_EQ(cfg.argv,
              (std::vector<std::string>{"tool", "--trace-file=t.jsonl",
                                        "--manifest", "m.json"}));
    EXPECT_TRUE(cfg.trace);
    EXPECT_EQ(cfg.resolvedTracePath(), "t.jsonl");
    EXPECT_TRUE(cfg.manifest);
    EXPECT_EQ(cfg.resolvedManifestPath(), "m.json");
}

TEST_F(ObsRunConfigTest, RecoveryAndFaultKnobsDefaultOff)
{
    RunConfig cfg = RunConfig::resolve("t");
    EXPECT_EQ(cfg.fault.recovery.policy, FailPolicy::FailFast);
    EXPECT_EQ(cfg.fault.recovery.maxRetries, 0u);
    EXPECT_EQ(cfg.fault.recovery.timeoutMs, 0u);
    EXPECT_FALSE(cfg.fault.any());
}

TEST_F(ObsRunConfigTest, EnvironmentOverlaysTheFaultKnobs)
{
    ::setenv("BDS_FAIL_POLICY", "quarantine", 1);
    ::setenv("BDS_RETRIES", "2", 1);
    ::setenv("BDS_RUN_TIMEOUT_MS", "5000", 1);
    ::setenv("BDS_FAULT_THROW", "H-Sort,S-Grep", 1);
    ::setenv("BDS_FAULT_STALL", "H-Bayes", 1);
    ::setenv("BDS_FAULT_CORRUPT", "*", 1);
    ::setenv("BDS_FAULT_ALLOC", "datagen", 1);
    ::setenv("BDS_FAULT_STALL_MS", "25", 1);
    ::setenv("BDS_FAULT_ATTEMPTS", "1", 1);

    RunConfig cfg = RunConfig::resolve("t");
    EXPECT_EQ(cfg.fault.recovery.policy, FailPolicy::Quarantine);
    EXPECT_EQ(cfg.fault.recovery.maxRetries, 2u);
    EXPECT_EQ(cfg.fault.recovery.timeoutMs, 5000u);
    EXPECT_EQ(cfg.fault.throwAt, "H-Sort,S-Grep");
    EXPECT_EQ(cfg.fault.stallAt, "H-Bayes");
    EXPECT_EQ(cfg.fault.corruptAt, "*");
    EXPECT_EQ(cfg.fault.allocAt, "datagen");
    EXPECT_EQ(cfg.fault.stallMs, 25u);
    EXPECT_EQ(cfg.fault.attempts, 1u);
    EXPECT_TRUE(cfg.fault.any());
}

TEST_F(ObsRunConfigTest, FaultFlagsWinOverTheEnvironment)
{
    ::setenv("BDS_FAIL_POLICY", "failfast", 1);
    RunConfig cfg;
    cfg.tool = "t";
    cfg.applyEnv();
    std::vector<std::string> rest = cfg.applyArgs(
        {"--fail-policy", "quarantine", "--retries=1",
         "--run-timeout-ms", "100", "--fault-throw=H-Grep",
         "--fault-stall-ms=10", "--fault-attempts", "1"});
    EXPECT_TRUE(rest.empty());
    EXPECT_EQ(cfg.fault.recovery.policy, FailPolicy::Quarantine);
    EXPECT_EQ(cfg.fault.recovery.maxRetries, 1u);
    EXPECT_EQ(cfg.fault.recovery.timeoutMs, 100u);
    EXPECT_EQ(cfg.fault.throwAt, "H-Grep");
    EXPECT_EQ(cfg.fault.stallMs, 10u);
    EXPECT_EQ(cfg.fault.attempts, 1u);
}

TEST_F(ObsRunConfigTest, UnknownFailPolicyIsFatal)
{
    ::setenv("BDS_FAIL_POLICY", "explode", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_FAIL_POLICY");

    RunConfig cfg;
    EXPECT_THROW(cfg.applyArgs({"--fail-policy=explode"}),
                 FatalError);
}

TEST_F(ObsRunConfigTest, ServeKnobsDefaultOff)
{
    RunConfig cfg = RunConfig::resolve("t");
    EXPECT_FALSE(cfg.serve.enabled);
    EXPECT_TRUE(cfg.serve.socketPath.empty());
    EXPECT_EQ(cfg.serve.storeDir, "bds_serve_cache");
    EXPECT_EQ(cfg.serve.maxInFlight, 0u);
    EXPECT_EQ(cfg.serve.maxQueue, 1024u);
    EXPECT_EQ(cfg.serve.maxStoreBytes, 0u);
    EXPECT_FALSE(cfg.serve.bypassStore);
    EXPECT_TRUE(cfg.serve.logPath.empty());
}

TEST_F(ObsRunConfigTest, EnvironmentOverlaysTheServeKnobs)
{
    ::setenv("BDS_SERVE_SOCKET", "/tmp/bds.sock", 1);
    ::setenv("BDS_SERVE_CACHE", "cachedir", 1);
    ::setenv("BDS_SERVE_MAX_INFLIGHT", "3", 1);
    ::setenv("BDS_SERVE_BYPASS", "1", 1);
    ::setenv("BDS_SERVE_LOG", "req.log", 1);

    RunConfig cfg = RunConfig::resolve("t");
    EXPECT_EQ(cfg.serve.socketPath, "/tmp/bds.sock");
    EXPECT_EQ(cfg.serve.storeDir, "cachedir");
    EXPECT_EQ(cfg.serve.maxInFlight, 3u);
    EXPECT_TRUE(cfg.serve.bypassStore);
    EXPECT_EQ(cfg.serve.logPath, "req.log");
}

TEST_F(ObsRunConfigTest, ServeFlagsWinOverTheEnvironment)
{
    ::setenv("BDS_SERVE_CACHE", "envdir", 1);
    ::setenv("BDS_SERVE_MAX_INFLIGHT", "9", 1);
    RunConfig cfg;
    cfg.tool = "t";
    cfg.applyEnv();
    std::vector<std::string> rest = cfg.applyArgs(
        {"--serve-cache", "flagdir", "--serve-max-inflight=2",
         "--serve-bypass", "--serve-socket=/tmp/s.sock",
         "--serve-log", "l.bin"});
    EXPECT_TRUE(rest.empty());
    EXPECT_EQ(cfg.serve.storeDir, "flagdir");
    EXPECT_EQ(cfg.serve.maxInFlight, 2u);
    EXPECT_TRUE(cfg.serve.bypassStore);
    EXPECT_EQ(cfg.serve.socketPath, "/tmp/s.sock");
    EXPECT_EQ(cfg.serve.logPath, "l.bin");
}

TEST_F(ObsRunConfigTest, StoreSafetyKnobsOverlayFromTheEnvironment)
{
    ::setenv("BDS_SERVE_MAX_QUEUE", "7", 1);
    ::setenv("BDS_STORE_MAX_BYTES", "1048576", 1);
    ::setenv("BDS_CKPT_MAX_BYTES", "2048", 1);
    ::setenv("BDS_FAULT_IO", "store.enospc", 1);

    RunConfig cfg = RunConfig::resolve("t");
    EXPECT_EQ(cfg.serve.maxQueue, 7u);
    EXPECT_EQ(cfg.serve.maxStoreBytes, 1048576u);
    EXPECT_EQ(cfg.ckpt.maxBytes, 2048u);
    EXPECT_EQ(cfg.fault.ioAt, "store.enospc");
    EXPECT_TRUE(cfg.fault.any());
}

TEST_F(ObsRunConfigTest, StoreSafetyFlagsWinOverTheEnvironment)
{
    ::setenv("BDS_SERVE_MAX_QUEUE", "9", 1);
    ::setenv("BDS_STORE_MAX_BYTES", "9", 1);
    RunConfig cfg;
    cfg.tool = "t";
    cfg.applyEnv();
    std::vector<std::string> rest = cfg.applyArgs(
        {"--serve-max-queue=5", "--store-max-bytes", "123",
         "--ckpt-max-bytes=77", "--fault-io", "store.write"});
    EXPECT_TRUE(rest.empty());
    EXPECT_EQ(cfg.serve.maxQueue, 5u);
    EXPECT_EQ(cfg.serve.maxStoreBytes, 123u);
    EXPECT_EQ(cfg.ckpt.maxBytes, 77u);
    EXPECT_EQ(cfg.fault.ioAt, "store.write");
}

TEST_F(ObsRunConfigTest, MalformedStoreSafetyKnobsAreFatal)
{
    ::setenv("BDS_STORE_MAX_BYTES", "lots", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_STORE_MAX_BYTES");

    ::setenv("BDS_SERVE_MAX_QUEUE", "-1", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_SERVE_MAX_QUEUE");

    RunConfig cfg;
    EXPECT_THROW(cfg.applyArgs({"--ckpt-max-bytes", "big"}),
                 FatalError);
}

TEST_F(ObsRunConfigTest, DescribeMentionsStoreBudgetsOnlyWhenSet)
{
    RunConfig cfg;
    cfg.tool = "t";
    cfg.serve.enabled = true;
    // Defaults stay out of the one-line description.
    std::string d = cfg.describe();
    EXPECT_EQ(d.find("max-queue="), std::string::npos) << d;
    EXPECT_EQ(d.find("max-bytes="), std::string::npos) << d;

    cfg.serve.maxQueue = 4;
    cfg.serve.maxStoreBytes = 4096;
    cfg.ckpt.enabled = true;
    cfg.ckpt.maxBytes = 512;
    d = cfg.describe();
    EXPECT_NE(d.find("max-queue=4"), std::string::npos) << d;
    EXPECT_NE(d.find("max-bytes=4096"), std::string::npos) << d;
    EXPECT_NE(d.find("max-bytes=512"), std::string::npos) << d;
}

TEST_F(ObsRunConfigTest, MalformedServeKnobsAreFatal)
{
    ::setenv("BDS_SERVE_MAX_INFLIGHT", "many", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_SERVE_MAX_INFLIGHT");

    ::setenv("BDS_SERVE_BYPASS", "yes", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_SERVE_BYPASS");

    ::setenv("BDS_SERVE_CACHE", "", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_SERVE_CACHE");

    RunConfig cfg;
    EXPECT_THROW(cfg.applyArgs({"--serve-cache="}), FatalError);
    EXPECT_THROW(cfg.applyArgs({"--serve-max-inflight", "two"}),
                 FatalError);
}

TEST_F(ObsRunConfigTest, DescribeMentionsTheServeBlock)
{
    RunConfig cfg;
    cfg.tool = "t";
    EXPECT_EQ(cfg.describe().find("serve("), std::string::npos);

    cfg.serve.enabled = true;
    cfg.serve.socketPath = "/tmp/s.sock";
    cfg.serve.maxInFlight = 2;
    cfg.serve.bypassStore = true;
    std::string d = cfg.describe();
    EXPECT_NE(d.find("serve(store=bds_serve_cache"),
              std::string::npos)
        << d;
    EXPECT_NE(d.find("socket=/tmp/s.sock"), std::string::npos) << d;
    EXPECT_NE(d.find("max-inflight=2"), std::string::npos) << d;
    EXPECT_NE(d.find("bypass"), std::string::npos) << d;
}

TEST_F(ObsRunConfigTest, CheckpointKnobsDefaultOff)
{
    RunConfig cfg = RunConfig::resolve("t");
    EXPECT_FALSE(cfg.ckpt.enabled);
    EXPECT_EQ(cfg.ckpt.dir, "bds_ckpt_cache");
    EXPECT_EQ(cfg.describe().find("ckpt("), std::string::npos);
}

TEST_F(ObsRunConfigTest, EnvironmentOverlaysTheCheckpointKnobs)
{
    ::setenv("BDS_CKPT", "1", 1);
    RunConfig on = RunConfig::resolve("t");
    EXPECT_TRUE(on.ckpt.enabled);
    EXPECT_EQ(on.ckpt.dir, "bds_ckpt_cache");
    ::unsetenv("BDS_CKPT");

    // A directory implies enabling, like BDS_TRACE_FILE for tracing.
    ::setenv("BDS_CKPT_DIR", "snapdir", 1);
    RunConfig dir = RunConfig::resolve("t");
    EXPECT_TRUE(dir.ckpt.enabled);
    EXPECT_EQ(dir.ckpt.dir, "snapdir");

    // BDS_CKPT=0 wins over the implied enable.
    ::setenv("BDS_CKPT", "0", 1);
    RunConfig off = RunConfig::resolve("t");
    EXPECT_FALSE(off.ckpt.enabled);
    EXPECT_EQ(off.ckpt.dir, "snapdir");
}

TEST_F(ObsRunConfigTest, CheckpointFlagsWinOverTheEnvironment)
{
    ::setenv("BDS_CKPT_DIR", "envdir", 1);
    RunConfig cfg;
    cfg.tool = "t";
    cfg.applyEnv();
    std::vector<std::string> rest =
        cfg.applyArgs({"--ckpt-dir", "flagdir"});
    EXPECT_TRUE(rest.empty());
    EXPECT_TRUE(cfg.ckpt.enabled);
    EXPECT_EQ(cfg.ckpt.dir, "flagdir");

    // --no-ckpt disables even an env-enabled cache; --ckpt re-arms.
    RunConfig off;
    off.applyEnv();
    off.applyArgs({"--no-ckpt"});
    EXPECT_FALSE(off.ckpt.enabled);
    off.applyArgs({"--ckpt"});
    EXPECT_TRUE(off.ckpt.enabled);

    std::string d = cfg.describe();
    EXPECT_NE(d.find("ckpt(dir=flagdir)"), std::string::npos) << d;
}

TEST_F(ObsRunConfigTest, MalformedCheckpointKnobsAreFatal)
{
    ::setenv("BDS_CKPT", "yes", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_CKPT");

    ::setenv("BDS_CKPT_DIR", "", 1);
    EXPECT_THROW(RunConfig::resolve("t"), FatalError);
    ::unsetenv("BDS_CKPT_DIR");

    RunConfig cfg;
    EXPECT_THROW(cfg.applyArgs({"--ckpt-dir="}), FatalError);
    EXPECT_THROW(cfg.applyArgs({"--ckpt-dir"}), FatalError);
}

TEST_F(ObsRunConfigTest, DescribeMentionsRecoveryAndInjection)
{
    RunConfig cfg;
    cfg.tool = "t";
    // Defaults: neither recovery nor injection appears.
    EXPECT_EQ(cfg.describe().find("recovery"), std::string::npos);
    EXPECT_EQ(cfg.describe().find("fault-injection"),
              std::string::npos);

    cfg.fault.recovery.policy = FailPolicy::Quarantine;
    cfg.fault.recovery.maxRetries = 2;
    cfg.fault.throwAt = "H-Sort";
    std::string d = cfg.describe();
    EXPECT_NE(d.find("recovery(quarantine"), std::string::npos) << d;
    EXPECT_NE(d.find("retries=2"), std::string::npos) << d;
    EXPECT_NE(d.find("fault-injection=on"), std::string::npos) << d;
}

TEST_F(ObsRunConfigTest, DescribeSummarizesTheRun)
{
    RunConfig cfg;
    cfg.tool = "t";
    cfg.scaleName = "quick";
    cfg.seed = 5;
    cfg.parallel.threads = 2;
    cfg.trace = true;
    std::string d = cfg.describe();
    EXPECT_NE(d.find("scale=quick"), std::string::npos);
    EXPECT_NE(d.find("seed=5"), std::string::npos);
    EXPECT_NE(d.find("threads=2"), std::string::npos);
    EXPECT_NE(d.find("trace=t.trace.jsonl"), std::string::npos);
}

} // namespace
} // namespace bds
