/**
 * @file
 * The bench funnel (bench/bench_common.h): every batch tool gets its
 * matrix from the result store bds_serve answers from, through the
 * one cell compute both front ends share (serve/engine.h).
 *
 *  - A sampled config that differs from a stored one only in its
 *    sampling knobs is a miss, never a stale hit.
 *  - A fresh compute and the store hit that follows feed the pipeline
 *    the same matrix, so their reports are byte-identical.
 *  - A cell a ServeEngine computed is a hit for the funnel, under the
 *    same hash and with the same bytes.
 *  - The cell dse_sweep publishes for the default preset is the file
 *    the funnel reads, and equals a direct compute of that config.
 *  - A quarantined dse_sweep drops the failed workload from every
 *    preset and records it in the run manifest, like every driver.
 *  - A `repro` study refuses a knob its output does not depend on.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "core/report.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "serve/engine.h"
#include "bench_common.h"

namespace bds {
namespace {

/** A fresh store directory under the test temp dir. */
std::string
freshStore(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "bds_funnel_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** Quick/42 full simulation on `storeDir`; no manifest, no trace. */
RunConfig
quickConfig(const std::string &storeDir)
{
    RunConfig cfg;
    cfg.tool = "test_funnel";
    cfg.scaleName = "quick";
    cfg.seed = 42;
    cfg.manifest = false;
    cfg.serve.storeDir = storeDir;
    return cfg;
}

/** What one funnel call produced and how. */
struct Fetch
{
    ResultEntry entry;
    std::string stage;    ///< "characterize" or "load-cache"
    std::string artifact; ///< the entry path the manifest notes
};

Fetch
fetch(const RunConfig &cfg)
{
    Session session(cfg);
    Fetch out;
    out.entry = bdsbench::characterizedEntry(session);
    const RunManifest m = session.buildManifest();
    if (!m.stages.empty())
        out.stage = m.stages.front().name;
    if (!m.artifacts.empty())
        out.artifact = m.artifacts.front();
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Every report the figure/table subcommands print from a result. */
std::string
reports(const PipelineResult &res)
{
    std::ostringstream os;
    writeDendrogramReport(os, res);
    writeLinkageCsv(os, res);
    writePcaSummary(os, res);
    writeLoadingsReport(os, res, 4);
    writeStackDifferentiationReport(os, res);
    writeClusterReport(os, res);
    writeRepresentativesReport(os, res);
    writeKiviatReport(os, res, 7);
    return os.str();
}

TEST(BenchFunnel, SamplingKnobsNeverHitAStaleCell)
{
    const std::string dir = freshStore("stale");
    RunConfig first = quickConfig(dir);
    first.sampling.enabled = true;
    const Fetch a = fetch(first);
    EXPECT_EQ(a.stage, "characterize");

    RunConfig second = first;
    second.sampling.kMax = 2;
    second.sampling.intervalUops = 20000;
    const Fetch b = fetch(second);
    EXPECT_EQ(b.stage, "characterize") << "stale hit on " << a.entry.hashHex;
    EXPECT_NE(b.entry.hashHex, a.entry.hashHex);
    EXPECT_NE(b.entry.csv, a.entry.csv);

    // The miss computed exactly what a store-free compute does.
    EXPECT_EQ(b.entry.csv, characterizeCell(second).entry.csv);

    // And each config now answers with its own cell.
    EXPECT_EQ(fetch(first).entry.csv, a.entry.csv);
    EXPECT_EQ(fetch(second).stage, "load-cache");
}

TEST(BenchFunnel, FreshComputeAndStoreHitReportTheSameBytes)
{
    const RunConfig cfg = quickConfig(freshStore("fresh"));
    std::string fresh, cached;
    {
        Session session(cfg);
        fresh = reports(bdsbench::characterizedPipeline(session));
        EXPECT_EQ(session.buildManifest().stages.front().name,
                  "characterize");
    }
    {
        Session session(cfg);
        cached = reports(bdsbench::characterizedPipeline(session));
        EXPECT_EQ(session.buildManifest().stages.front().name,
                  "load-cache");
    }
    ASSERT_FALSE(fresh.empty());
    EXPECT_EQ(fresh, cached);
}

TEST(BenchFunnel, ServeEngineCellIsAFunnelHit)
{
    const std::string dir = freshStore("serve");
    RunConfig base = quickConfig(dir);
    base.serve.enabled = true;
    ServeEngine engine(base);
    RequestRecord req;
    req.scale = 0; // quick
    req.seed = 42;
    const ServeResponse resp = engine.handle(req);
    ASSERT_TRUE(resp.ok) << resp.message;
    ASSERT_FALSE(resp.hit);

    const Fetch f = fetch(quickConfig(dir));
    EXPECT_EQ(f.stage, "load-cache");
    EXPECT_EQ(f.entry.hashHex, resp.hashHex);
    EXPECT_EQ(f.entry.csv, resp.payload);
    EXPECT_EQ(f.artifact, engine.store().entryPath(resp.hashHex));
}

TEST(BenchFunnel, DsePublishedDefaultCellIsTheFileTheFunnelReads)
{
    const std::string dir = freshStore("dse");
    const std::string json = dir + ".json";
    const std::string cmd =
        std::string("env -u BDS_SAMPLE_INTERVAL -u BDS_SAMPLE_BBV "
                    "-u BDS_SAMPLE_KMAX -u BDS_SAMPLE_WARMUP "
                    "-u BDS_SAMPLE_SEED -u BDS_MACHINE -u BDS_CKPT "
                    "-u BDS_CKPT_DIR -u BDS_SERVE_BYPASS ")
        + BDS_DSE_SWEEP_BIN
        + " --scale quick --seed 42 --no-manifest --dse-presets default"
          " --serve-cache " + dir + " --dse-out " + json
        + " > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::remove(json.c_str());

    RunConfig cfg = quickConfig(dir);
    cfg.sampling.enabled = true;
    const Fetch f = fetch(cfg);
    EXPECT_EQ(f.stage, "load-cache");
    ResultStore store(dir);
    const std::string path = store.entryPath(runConfigHashHex(cfg));
    EXPECT_EQ(f.artifact, path);
    EXPECT_EQ(readResultEntry(slurp(path), path).csv, f.entry.csv);

    // The capture/replay seam: the DSE's replayed default cell equals
    // the monolithic sampled compute of the same config.
    EXPECT_EQ(f.entry.csv, characterizeCell(cfg).entry.csv);
}

TEST(BenchFunnel, DseQuarantineDropsTheRowAndRecordsIt)
{
    const std::string base = freshStore("dse_quarantine");
    const std::string json = base + ".json";
    const std::string manifest = base + ".manifest.json";
    const std::string cmd =
        std::string("env -u BDS_SAMPLE_INTERVAL -u BDS_SAMPLE_BBV "
                    "-u BDS_SAMPLE_KMAX -u BDS_SAMPLE_WARMUP "
                    "-u BDS_SAMPLE_SEED -u BDS_MACHINE -u BDS_CKPT "
                    "-u BDS_CKPT_DIR -u BDS_RETRIES -u BDS_FAULT_ATTEMPTS "
                    "BDS_FAIL_POLICY=quarantine BDS_FAULT_THROW=H-Grep ")
        + BDS_DSE_SWEEP_BIN
        + " --scale quick --seed 42 --dse-presets default,l1-16k"
          " --dse-workloads H-Sort,H-Grep,S-Union --serve-bypass"
          " --manifest " + manifest + " --dse-out " + json
        + " > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    const JsonValue dse = parseJson(slurp(json));
    std::remove(json.c_str());
    std::vector<std::string> rows;
    for (const JsonValue &w : dse.at("workloads").asArray())
        rows.push_back(w.asString());
    EXPECT_EQ(rows, (std::vector<std::string>{"H-Sort", "S-Union"}));
    const std::vector<JsonValue> &presets = dse.at("presets").asArray();
    ASSERT_EQ(presets.size(), 2u);
    for (const JsonValue &p : presets) {
        std::vector<std::string> cells;
        for (const JsonValue &c : p.at("cells").asArray())
            cells.push_back(c.at("name").asString());
        EXPECT_EQ(cells, rows) << p.at("name").asString();
    }

    const RunManifest m = readRunManifestFile(manifest);
    std::remove(manifest.c_str());
    EXPECT_EQ(m.quarantined, (std::vector<std::string>{"H-Grep"}));
    ASSERT_EQ(m.failures.size(), 1u);
    EXPECT_EQ(m.failures.front().name, "H-Grep");
    EXPECT_EQ(m.failures.front().code, ErrorCode::InjectedFault);
}

/** Run `cmd` under sh, stderr folded in: {exit status, output}. */
std::pair<int, std::string>
runFolded(const std::string &cmd)
{
    FILE *pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return {-1, ""};
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    const int status = ::pclose(pipe);
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(ReproStudies, KnobsAStudyIgnoresAreInvalidConfig)
{
    // cpi-stack always runs the full-detail quick sweep,
    // ablation-engines a fixed WordCount corpus, and sampled-vs-full
    // checkpoints into directories of its own: each rejects, before
    // simulating anything, every knob that would not change its bytes.
    const std::pair<const char *, const char *> cases[] = {
        {"cpi-stack --sampled", "--sampled"},
        {"cpi-stack --scale full", "--scale"},
        {"cpi-stack --metrics LOAD", "--metrics"},
        {"cpi-stack --ckpt", "--ckpt"},
        {"ablation-engines --scale full --seed 7", "--scale, --seed"},
        {"sampled-vs-full --ckpt-dir X", "--ckpt, --ckpt-dir"},
    };
    for (const auto &[args, named] : cases) {
        const auto [rc, out] = runFolded(
            std::string("env -u BDS_SCALE -u BDS_SEED -u BDS_MACHINE "
                        "-u BDS_SAMPLE -u BDS_METRICS -u BDS_CKPT "
                        "-u BDS_CKPT_DIR -u BDS_CKPT_MAX_BYTES "
                        "BDS_MANIFEST=0 ")
            + BDS_REPRO_BIN + " " + args);
        EXPECT_EQ(rc, 1) << args << ": " << out;
        EXPECT_NE(out.find("invalid_config"), std::string::npos)
            << args << ": " << out;
        EXPECT_NE(out.find(std::string("ignores ") + named),
                  std::string::npos)
            << args << ": " << out;
    }
}

} // namespace
} // namespace bds
