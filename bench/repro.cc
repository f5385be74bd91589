/**
 * @file
 * The paper's tables, figures and findings scorecard from one driver:
 *
 *   repro <table1..table5|fig1..fig6|scorecard|all|csv> [RunConfig flags]
 *
 * `repro` alone lists the subcommands. Tables I–III need no matrix;
 * every other subcommand reads the configuration's 32 x 45 matrix
 * from the result store (bench_common.h), `all` gets it at most once,
 * and `csv` prints the store entry's CSV.
 */

#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/findings.h"
#include "core/report.h"
#include "uarch/config.h"
#include "workloads/registry.h"
#include "bench_common.h"

namespace {

using namespace bds;

void
table1(const RunConfig &cfg)
{
    const std::string &scale_name = cfg.scaleName;
    ScaleProfile scale = ScaleProfile::byName(scale_name);

    std::cout << "Table I — representative data analysis workloads "
                 "(scale '" << scale_name << "', unit = "
              << scale.unitRecords << " records)\n\n";

    TextTable t({"category", "workload", "relative size",
                 "scaled records", "stacks"});
    for (unsigned a = 0; a < kNumAlgorithms; ++a) {
        auto alg = static_cast<Algorithm>(a);
        double rel = relativeInputSize(alg);
        std::uint64_t recs = static_cast<std::uint64_t>(
            rel * static_cast<double>(scale.unitRecords));
        t.addRow({isInteractive(alg) ? "Interactive Analytics"
                                     : "Offline Analytics",
                  algorithmName(alg), fmtDouble(rel, 2),
                  std::to_string(recs),
                  isInteractive(alg) ? "Hive & Shark"
                                     : "Hadoop & Spark"});
    }
    t.print(std::cout);

    std::cout << "\nworkload instances (" << allWorkloads().size()
              << "):";
    for (const auto &id : allWorkloads())
        std::cout << ' ' << id.name();
    std::cout << '\n';
}

void
table2(const RunConfig &cfg)
{
    // Pinned to quick scale; machine/seed/recovery still follow the
    // session config.
    RunConfig quickCfg = cfg;
    quickCfg.scaleName = "quick";
    WorkloadRunner runner = WorkloadRunner::fromRunConfig(quickCfg);
    auto h = runner.run(WorkloadId{Algorithm::WordCount, StackKind::Hadoop});
    auto s = runner.run(WorkloadId{Algorithm::WordCount, StackKind::Spark});

    std::cout << "Table II — microarchitecture level metrics "
                 "(live values: WordCount at quick scale)\n\n";
    TextTable t({"no.", "metric", "description", "H-WordCount",
                 "S-WordCount"});
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
        auto m = static_cast<Metric>(i);
        t.addRow({std::to_string(i + 1), metricName(i),
                  metricDescription(m), fmtDouble(h.metrics[i], 4),
                  fmtDouble(s.metrics[i], 4)});
    }
    t.print(std::cout);
}

std::string
cacheDesc(const CacheConfig &c)
{
    std::string size = c.sizeBytes >= (1u << 20)
        ? std::to_string(c.sizeBytes >> 20) + " MB"
        : std::to_string(c.sizeBytes >> 10) + " KB";
    return size + ", " + std::to_string(c.assoc) + "-way, "
        + std::to_string(c.lineBytes) + " B/line";
}

void
printNode(const std::string &title, const NodeConfig &cfg)
{
    std::cout << title << "\n";
    TextTable t({"component", "configuration"});
    t.addRow({"# cores", std::to_string(cfg.numCores)});
    auto tlb = [](const TlbConfig &c) {
        return std::to_string(c.assoc) + "-way, "
            + std::to_string(c.entries) + " entries";
    };
    t.addRow({"ITLB", tlb(cfg.itlb)});
    t.addRow({"DTLB", tlb(cfg.dtlb)});
    t.addRow({"L2 shared TLB", tlb(cfg.stlb)});
    t.addRow({"L1 DCache", cacheDesc(cfg.l1d)});
    t.addRow({"L1 ICache", cacheDesc(cfg.l1i)});
    t.addRow({"L2 cache", cacheDesc(cfg.l2)});
    t.addRow({"L3 cache", cacheDesc(cfg.l3)});
    t.addRow({"page size", std::to_string(cfg.pageBytes) + " B"});
    t.addRow({"L2 / L3 / memory latency",
              fmtDouble(cfg.l2Latency, 0) + " / "
                  + fmtDouble(cfg.l3Latency, 0) + " / "
                  + fmtDouble(cfg.memLatency, 0) + " cycles"});
    t.addRow({"issue width", std::to_string(cfg.issueWidth)});
    t.addRow({"branch predictor",
              "gshare, " + std::to_string(cfg.historyBits)
                  + "-bit history"});
    t.addRow({"line fill buffers", std::to_string(cfg.lfbEntries)});
    t.print(std::cout);
    std::cout << '\n';
}

void
table3(const RunConfig &cfg)
{
    std::cout << "Table III — hardware configuration of the simulated "
                 "node\n\n";
    printNode("paper configuration (one E5645 socket):",
              machineByName("westmere"));
    printNode("configured simulation target (" + cfg.machineSpec + "):",
              resolveMachineSpec(cfg.machineSpec));

    std::cout << "machine preset registry (--machine / BDS_MACHINE; "
                 "override with key=value,... — see docs/DSE.md)\n";
    TextTable reg({"preset", "geometry", "summary"});
    for (const MachinePreset &p : machinePresets())
        reg.addRow({p.name, describeMachine(p.config), p.summary});
    reg.print(std::cout);
}

/** One subcommand: a writer over the config or over the pipeline. */
struct Artifact
{
    const char *name;
    const char *title;
    void (*fromConfig)(const RunConfig &);
    void (*fromMatrix)(const PipelineResult &);
};

/** Every table and figure, in `repro all` order. */
const Artifact kArtifacts[] = {
    {"table1", "Table I: the 32-workload matrix and scaled sizes",
     table1, nullptr},
    {"table2", "Table II: the 45 metrics, live values", table2, nullptr},
    {"table3", "Table III: the simulated node and the machine presets",
     table3, nullptr},
    {"fig1", "Figure 1: similarity dendrogram, observations 1-5",
     nullptr,
     [](const PipelineResult &res) {
         writeDendrogramReport(std::cout, res);
         std::cout << '\n';
         writeSimilarityObservations(std::cout, res);
         std::cout << "\nscipy linkage matrix (plot with "
                      "scipy.cluster.hierarchy.dendrogram):\n";
         writeLinkageCsv(std::cout, res);
     }},
    {"fig2", "Figure 2: PC1/PC2 scatter", nullptr,
     [](const PipelineResult &res) {
         writePcaSummary(std::cout, res);
         std::cout << "\nFigure 2 — PC1/PC2 scatter\n";
         writeScatterReport(std::cout, res, 0, 1);
     }},
    {"fig3", "Figure 3: PC3/PC4 scatter", nullptr,
     [](const PipelineResult &res) {
         if (res.pca.numComponents < 4) {
             std::cout << "fewer than four PCs retained; nothing to plot\n";
             return;
         }
         std::cout << "Figure 3 — PC3/PC4 scatter\n";
         writeScatterReport(std::cout, res, 2, 3);
     }},
    {"fig4", "Figure 4: factor loadings of PC1-PC4", nullptr,
     [](const PipelineResult &res) {
         writePcaSummary(std::cout, res);
         std::cout << "\nFigure 4 — factor loadings (CSV)\n";
         writeLoadingsReport(std::cout, res, 4);
     }},
    {"fig5", "Figure 5: the metrics separating Hadoop from Spark",
     nullptr,
     [](const PipelineResult &res) {
         std::cout << "Figure 5 — metrics causing Hadoop and Spark to "
                      "behave differently\n\n";
         writeStackDifferentiationReport(std::cout, res);
     }},
    {"table4", "Table IV: BIC sweep and the K-means clustering", nullptr,
     [](const PipelineResult &res) {
         std::cout << "Table IV — K-means clustering with BIC "
                      "selection\n\n";
         writeClusterReport(std::cout, res);
     }},
    {"table5", "Table V: representative workloads", nullptr,
     [](const PipelineResult &res) {
         std::cout << "at the BIC-selected K:\n";
         writeRepresentativesReport(std::cout, res);
         std::cout << "at the paper's K = 7:\n";
         writeRepresentativesReport(std::cout, res, 7);
     }},
    // The paper selects seven representatives; the Kiviat view uses
    // its K (the BIC-selected clustering is in table4).
    {"fig6", "Figure 6: Kiviat view of the representatives", nullptr,
     [](const PipelineResult &res) { writeKiviatReport(std::cout, res, 7); }},
    // Known deviations are documented in EXPERIMENTS.md; a failed
    // finding still exits 0 so `all` runs to completion.
    {"scorecard", "Every encoded paper claim, PASS/FAIL", nullptr,
     [](const PipelineResult &res) {
         std::cout << "Reproduction scorecard — paper claims vs this "
                      "run\n\n";
         std::size_t failed = writeFindingsReport(
             std::cout, evaluatePaperFindings(res));
         std::cout << (failed == 0 ? "\nall findings reproduced\n"
                                   : "\nsee EXPERIMENTS.md for the "
                                     "documented deviations\n");
     }},
};

void
usage()
{
    std::cerr << "usage: repro <subcommand> [options]\n\n";
    for (const Artifact &a : kArtifacts)
        std::cerr << "  " << a.name << std::string(10 - std::strlen(a.name), ' ')
           << a.title << '\n';
    std::cerr << "  all       every one of the above\n"
          "  csv       the 32 x 45 metric matrix as CSV\n\n"
          "The matrix comes from the result store; options are the "
          "common RunConfig\nflags (src/obs/runconfig.h): --scale, "
          "--seed, --machine, --sampled,\n--serve-cache DIR, "
          "--serve-bypass, ...\n";
}

int
run(int argc, char **argv)
{
    RunConfig cfg;
    cfg.tool = "repro";
    cfg.argv.assign(argv, argv + argc);
    cfg.applyEnv();
    std::vector<std::string> rest =
        cfg.applyArgs(std::vector<std::string>(argv + 1, argv + argc));
    if (rest.size() != 1) {
        usage();
        return 2;
    }
    const std::string sub = rest[0];
    std::vector<const Artifact *> selected;
    for (const Artifact &a : kArtifacts)
        if (sub == "all" || sub == a.name)
            selected.push_back(&a);
    if (selected.empty() && sub != "csv") {
        std::cerr << "repro: unknown subcommand '" << sub << "'\n";
        usage();
        return 2;
    }

    Session session(cfg);
    if (sub == "csv") {
        std::cout << bdsbench::characterizedEntry(session).csv;
        return 0;
    }
    std::optional<PipelineResult> res;
    for (const Artifact *a : selected) {
        if (sub == "all")
            std::cout << (a == selected.front() ? "" : "\n") << "== "
                      << a->name << " ==\n";
        if (a->fromConfig) {
            a->fromConfig(session.config());
            continue;
        }
        if (!res)
            res = bdsbench::characterizedPipeline(session);
        a->fromMatrix(*res);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "repro: " << e.what() << "\n";
        return 1;
    }
}
