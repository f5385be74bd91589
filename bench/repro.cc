/**
 * @file
 * The paper's tables, figures and findings scorecard, and the studies
 * built on them, from one driver:
 *
 *   repro <table1..table5|fig1..fig6|scorecard|all|csv> [RunConfig flags]
 *   repro <ablation-pipeline|ablation-engines|cpi-stack|sampled-vs-full>
 *
 * `repro` alone lists the subcommands. Tables I–III need no matrix;
 * every other artifact reads the configuration's 32 x 45 matrix from
 * the result store (bench_common.h), `all` gets it at most once, and
 * `csv` prints the store entry's CSV. The studies are not part of
 * `all`: each runs its own experiment (DESIGN.md §5).
 */

#include <array>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/findings.h"
#include "core/report.h"
#include "sample/characterizer.h"
#include "sample/estimate.h"
#include "stack/hadoop.h"
#include "stack/spark.h"
#include "stats/silhouette.h"
#include "uarch/config.h"
#include "uarch/system.h"
#include "workloads/datagen.h"
#include "workloads/offline.h"
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

/**
 * The pipeline's design choices (DESIGN.md §5) over the session's
 * matrix: linkage criterion, PC retention, K selection (BIC vs
 * silhouette) and representative strategy.
 */
int
ablationPipeline(Session &session)
{
    const PipelineResult base = bdsbench::characterizedPipeline(session);
    const Matrix &metrics = base.rawMetrics;
    const auto &names = base.names;

    std::cout << "Ablation 1 — linkage criterion\n";
    TextTable t1({"linkage", "same-stack 1st-iter share",
                  "final merge distance"});
    for (Linkage l :
         {Linkage::Single, Linkage::Complete, Linkage::Average}) {
        PipelineOptions opts;
        opts.linkage = l;
        auto res = runPipeline(metrics, names, opts);
        auto obs = analyzeSimilarity(res);
        t1.addRow({linkageName(l),
                   fmtDouble(100.0 * obs.sameStackShare, 1) + "%",
                   fmtDouble(res.dendrogram.merges().back().distance,
                             2)});
    }
    t1.print(std::cout);

    std::cout << "\nAblation 2 — PC retention policy\n";
    TextTable t2({"policy", "PCs", "variance retained",
                  "BIC-selected K"});
    auto addPolicy = [&](const std::string &policy,
                         const PipelineOptions &opts) {
        auto res = runPipeline(metrics, names, opts);
        t2.addRow({policy, std::to_string(res.pca.numComponents),
                   fmtDouble(100.0 * res.pca.totalVarianceRetained, 1)
                       + "%",
                   std::to_string(res.bic.bestK())});
    };
    addPolicy("Kaiser (paper)", PipelineOptions{});
    for (std::size_t forced : {2u, 4u, 8u, 16u}) {
        PipelineOptions opts;
        opts.pca.forcedComponents = forced;
        addPolicy("fixed " + std::to_string(forced), opts);
    }
    t2.print(std::cout);

    std::cout << "\nAblation 3 — K selection (BIC vs silhouette)\n";
    TextTable t3({"K", "BIC", "silhouette"});
    std::size_t sil_best = 0;
    double sil_best_score = -2.0;
    for (const auto &pt : base.bic.points) {
        double sil = silhouetteScore(base.pca.scores, pt.result.labels);
        if (sil > sil_best_score) {
            sil_best_score = sil;
            sil_best = pt.k;
        }
        t3.addRow({std::to_string(pt.k), fmtDouble(pt.bic, 1),
                   fmtDouble(sil, 3)});
    }
    t3.print(std::cout);
    std::cout << "BIC selects K = " << base.bic.bestK()
              << "; silhouette selects K = " << sil_best << '\n';

    std::cout << "\nAblation 4 — representative strategy (Table V)\n";
    TextTable t4({"strategy", "max linkage distance",
                  "representatives"});
    for (auto strat : {RepresentativeStrategy::NearestToCentroid,
                       RepresentativeStrategy::FarthestFromCentroid}) {
        auto subset = selectRepresentatives(base, strat);
        std::string reps;
        for (std::size_t r : subset.representatives) {
            if (!reps.empty())
                reps += ", ";
            reps += base.names[r];
        }
        t4.addRow({strategyName(strat),
                   fmtDouble(subset.maxPairwiseLinkage, 2), reps});
    }
    t4.print(std::cout);
    return 0;
}

/**
 * WordCount (60k records) on one engine carrying its own or the
 * other stack's code-footprint mechanisms.
 */
MetricVector
transplantWordCount(const NodeConfig &machine, bool mapreduce_engine,
                    bool hadoop_code_footprint)
{
    SystemModel sys(machine);
    AddressSpace space;

    StackProfile profile =
        mapreduce_engine ? hadoopProfile() : sparkProfile();
    StackProfile donor =
        hadoop_code_footprint ? hadoopProfile() : sparkProfile();
    profile.fwFunctions = donor.fwFunctions;
    profile.fwFnBodyBytes = donor.fwFnBodyBytes;
    profile.fwFnStrideBytes = donor.fwFnStrideBytes;
    profile.fwCallZipf = donor.fwCallZipf;
    profile.fwCallsPerRecord = donor.fwCallsPerRecord;

    std::unique_ptr<StackEngine> engine;
    if (mapreduce_engine)
        engine = std::make_unique<MapReduceEngine>(sys, space, profile,
                                                   0x4adaaULL);
    else
        engine = std::make_unique<RddEngine>(sys, space, profile,
                                             0x5aa4cULL);

    Dataset corpus = makeTextCorpus(space, 60000, 4000, 4, 4, 99);
    OfflineWorkloads wl(*engine);
    wl.runWordCount(corpus);
    return extractMetrics(sys.aggregateCounters());
}

/**
 * The engine-mechanism ablation (DESIGN.md §5.1): the frontend
 * metrics follow the transplanted code footprint, the data-path
 * metrics stay with the execution model, so the metric differences
 * are emergent rather than per-engine constants.
 */
int
ablationEngines(Session &session)
{
    const NodeConfig machine =
        resolveMachineSpec(session.config().machineSpec);
    std::cout << "Engine-mechanism ablation — WordCount, 60k records\n"
              << "(frontend metrics must follow the code-footprint "
                 "mechanism;\n data-path metrics must stay with the "
                 "execution model)\n\n";

    TextTable t({"configuration", "L1I MPKI", "ITLB MPKI",
                 "FETCH STALL", "L3 MPKI", "SNOOP HITM/KI",
                 "KERNEL"});
    auto addRow = [&](const char *label, bool mapreduce_engine,
                      bool hadoop_code_footprint) {
        const MetricVector m = transplantWordCount(
            machine, mapreduce_engine, hadoop_code_footprint);
        auto get = [&](Metric x) {
            return m[static_cast<std::size_t>(x)];
        };
        t.addRow({label, fmtDouble(get(Metric::L1iMiss), 2),
                  fmtDouble(get(Metric::ItlbMiss), 2),
                  fmtDouble(get(Metric::FetchStall), 3),
                  fmtDouble(get(Metric::L3Miss), 2),
                  fmtDouble(get(Metric::SnoopHitM), 3),
                  fmtDouble(get(Metric::KernelMode), 3)});
    };
    addRow("MapReduce + Hadoop code (stock H)", true, true);
    addRow("MapReduce + Spark code  (swapped)", true, false);
    addRow("RDD + Spark code        (stock S)", false, false);
    addRow("RDD + Hadoop code       (swapped)", false, true);
    t.print(std::cout);

    std::cout << "\nExpected pattern: the two rows with Hadoop code "
                 "show high L1I/ITLB/fetch\nnumbers regardless of "
                 "engine; the two RDD rows show high L3/snoop numbers\n"
                 "regardless of code footprint. The differences are "
                 "emergent from mechanisms,\nnot baked into the "
                 "engines.\n";
    return 0;
}

/**
 * Per-workload cycle-accounting breakdown (the frontend-vs-backend
 * stall structure of the paper's Section V-C), from one full sweep
 * at quick scale; machine, seed and recovery follow the session.
 */
int
cpiStack(Session &session)
{
    RunConfig quickCfg = session.config();
    quickCfg.scaleName = "quick";
    std::vector<WorkloadResult> details;
    WorkloadRunner::fromRunConfig(quickCfg).runAll(&details);

    std::cout << "CPI stacks (quick scale) — cycle shares per "
                 "workload\n\n";
    std::vector<std::string> names;
    std::vector<PmcCounters> counters;
    for (const WorkloadResult &r : details) {
        names.push_back(r.id.name());
        counters.push_back(r.counters);
    }
    writeCpiStackReport(std::cout, names, counters);
    std::cout << "\nExpected shape: Hadoop rows lean on fetch stalls "
                 "(frontend), Spark rows\non resource stalls "
                 "(backend) — observation 8.\n";
    return 0;
}

std::string
q(const std::string &s)
{
    return '"' + s + '"';
}

/**
 * The sampling contract, measured end to end: the 32-workload sweep
 * runs fully detailed and sampled, and the study reports the
 * detail-op reduction, the wall-clock speedup, the per-metric
 * reconstruction error and whether every paper finding keeps its
 * verdict. It writes BENCH_sampled.json and fails (exit 1) when the
 * reduction is below 5x or a finding flips. `reduction` is total /
 * detail ops; the warmed ops still cost simulation time.
 */
int
sampledVsFull(Session &session)
{
    const RunConfig &cfg = session.config();
    const std::string &scale_name = cfg.scaleName;
    SamplingOptions sampling = cfg.sampling;
    sampling.enabled = true; // this study always runs both paths

    WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    auto ids = allWorkloads();
    std::vector<std::string> names;
    for (const auto &id : ids)
        names.push_back(id.name());

    std::cerr << "[bench] full detailed sweep at scale '" << scale_name
              << "'\n";
    std::vector<WorkloadResult> full_details;
    SweepTiming full_timing;
    Matrix full = runner.runAll(&full_details, &full_timing);

    std::cerr << "[bench] sampled sweep (interval "
              << sampling.intervalUops << " uops, kMax "
              << sampling.kMax << ", warmup "
              << sampling.warmupIntervals << ")\n";
    SampledCharacterizer sampler(runner, sampling);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<SampledWorkloadResult> s_details;
    Matrix sampled = sampler.runAll(&s_details);
    double sampled_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - t0).count();

    // --- op accounting and per-metric error aggregation ------------
    SampledReplayStats ops;
    std::array<double, kNumMetrics> metric_err{};
    std::vector<MetricErrorReport> reports(ids.size());
    double mean_err = 0.0, max_err = 0.0;
    std::size_t worst_metric = 0, worst_workload = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        ops += s_details[i].stats;
        reports[i] = compareMetrics(full_details[i].metrics,
                                    s_details[i].metrics);
        mean_err += reports[i].meanError;
        for (std::size_t j = 0; j < kNumMetrics; ++j)
            metric_err[j] += reports[i].relError[j];
        if (reports[i].maxError > max_err) {
            max_err = reports[i].maxError;
            worst_metric = reports[i].worstMetric;
            worst_workload = i;
        }
    }
    mean_err /= static_cast<double>(ids.size());
    for (double &e : metric_err)
        e /= static_cast<double>(ids.size());
    double reduction = ops.detailOps
        ? static_cast<double>(ops.totalOps)
            / static_cast<double>(ops.detailOps)
        : 0.0;
    double speedup = sampled_seconds > 0.0
        ? full_timing.totalSeconds / sampled_seconds : 0.0;

    // --- do the paper findings survive sampling? --------------------
    PipelineOptions popts = pipelineOptionsFor(cfg);
    auto full_findings =
        evaluatePaperFindings(runPipeline(full, names, popts));
    auto sampled_findings =
        evaluatePaperFindings(runPipeline(sampled, names, popts));
    std::vector<std::string> flipped;
    for (std::size_t i = 0; i < full_findings.size(); ++i)
        if (full_findings[i].pass != sampled_findings[i].pass)
            flipped.push_back(full_findings[i].id);

    // --- human-readable report --------------------------------------
    std::cout << std::setprecision(4) << std::fixed;
    std::cout << "sampled vs full characterization ("
              << ids.size() << " workloads, scale '" << scale_name
              << "')\n\n"
              << "  micro-ops total      " << ops.totalOps << "\n"
              << "  detail-simulated     " << ops.detailOps << " ("
              << reduction << "x reduction)\n"
              << "  warmed (frozen)      " << ops.warmOps << "\n"
              << "  fast-forwarded       " << ops.skippedOps << "\n"
              << "  full sweep           " << full_timing.totalSeconds
              << " s\n"
              << "  sampled sweep        " << sampled_seconds << " s ("
              << speedup << "x)\n"
              << "  mean metric error    " << mean_err << "\n"
              << "  worst metric error   " << max_err << " ("
              << metricName(worst_metric) << " on "
              << names[worst_workload] << ")\n"
              << "  findings preserved   "
              << (full_findings.size() - flipped.size()) << "/"
              << full_findings.size() << "\n";
    for (const std::string &id : flipped)
        std::cout << "    FLIPPED: " << id << "\n";

    std::cout << "\n  per-metric mean relative error\n";
    for (std::size_t j = 0; j < kNumMetrics; ++j)
        std::cout << "    " << std::left << std::setw(22)
                  << metricName(j) << std::right << " "
                  << metric_err[j] << "\n";

    // --- machine-readable artifact ----------------------------------
    std::ofstream os("BENCH_sampled.json");
    os << std::setprecision(6) << std::fixed;
    os << "{\n"
       << "  \"bench\": \"sampled_vs_full\",\n"
       << "  \"scale\": " << q(scale_name) << ",\n"
       << "  \"seed\": " << cfg.seed << ",\n";
    bdsbench::writeEnvironmentJson(os, "  ");
    os << ",\n"
       << "  \"sampling\": {\n"
       << "    \"interval_uops\": " << sampling.intervalUops << ",\n"
       << "    \"bbv_dims\": " << sampling.bbvDims << ",\n"
       << "    \"k_max\": " << sampling.kMax << ",\n"
       << "    \"warmup_intervals\": " << sampling.warmupIntervals
       << ",\n"
       << "    \"seed\": " << sampling.seed << "\n  },\n"
       << "  \"ops\": {\"total\": " << ops.totalOps << ", \"detail\": "
       << ops.detailOps << ", \"warm\": " << ops.warmOps
       << ", \"skipped\": " << ops.skippedOps << ", \"reduction\": "
       << reduction << "},\n"
       << "  \"wall_seconds\": {\"full\": " << full_timing.totalSeconds
       << ", \"sampled\": " << sampled_seconds << ", \"speedup\": "
       << speedup << "},\n"
       << "  \"error\": {\"mean\": " << mean_err << ", \"max\": "
       << max_err << ", \"worst_metric\": "
       << q(metricName(worst_metric)) << ", \"worst_workload\": "
       << q(names[worst_workload]) << "},\n";
    os << "  \"per_metric_mean_rel_error\": {";
    for (std::size_t j = 0; j < kNumMetrics; ++j)
        os << (j ? ", " : "") << q(metricName(j)) << ": "
           << metric_err[j];
    os << "},\n";
    os << "  \"per_workload\": [";
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto &s = s_details[i];
        os << (i ? ",\n    " : "\n    ") << "{\"name\": "
           << q(names[i]) << ", \"intervals\": " << s.numIntervals
           << ", \"k\": " << s.k << ", \"reps\": " << s.numReps
           << ", \"detail_ops\": " << s.stats.detailOps
           << ", \"total_ops\": " << s.stats.totalOps
           << ", \"mean_err\": " << reports[i].meanError
           << ", \"max_err\": " << reports[i].maxError << "}";
    }
    os << "\n  ],\n";
    os << "  \"findings\": {\"total\": " << full_findings.size()
       << ", \"preserved\": "
       << (full_findings.size() - flipped.size()) << ", \"flipped\": [";
    for (std::size_t i = 0; i < flipped.size(); ++i)
        os << (i ? ", " : "") << q(flipped[i]);
    os << "]}\n}\n";
    session.noteArtifact("BENCH_sampled.json");
    std::cout << "\n-> BENCH_sampled.json\n";

    // The sampling contract: at least 5x fewer detail-simulated ops
    // and no paper finding flipping its verdict. Violations fail the
    // study so CI catches a drifting calibration.
    bool pass = reduction >= 5.0 && flipped.empty();
    std::cout << (pass ? "\nsampling contract: PASS\n"
                       : "\nsampling contract: FAIL\n");
    return pass ? 0 : 1;
}

/** One study: an experiment of its own, run alone (not by `all`). */
struct Study
{
    const char *name;
    const char *title;
    int (*run)(Session &);
};

const Study kStudies[] = {
    {"ablation-pipeline",
     "linkage, PC retention, K selection, representative strategy",
     ablationPipeline},
    {"ablation-engines",
     "code footprint transplanted across engines (WordCount)",
     ablationEngines},
    {"cpi-stack", "per-workload CPI stacks at quick scale", cpiStack},
    {"sampled-vs-full",
     "sampled vs full sweep: ops, error, findings; writes "
     "BENCH_sampled.json",
     sampledVsFull},
};

void
usage()
{
    auto entry = [](const char *name, std::size_t width,
                    const char *title) {
        std::cerr << "  " << name
                  << std::string(width - std::strlen(name), ' ') << title
                  << '\n';
    };
    std::cerr << "usage: repro <subcommand> [options]\n\n";
    for (const Artifact &a : kArtifacts)
        entry(a.name, 10, a.title);
    entry("all", 10, "every one of the above");
    entry("csv", 10, "the 32 x 45 metric matrix as CSV");
    std::cerr << "\nstudies (not part of `all`):\n";
    for (const Study &st : kStudies)
        entry(st.name, 19, st.title);
    std::cerr << "\nThe matrix comes from the result store; options are "
                 "the common RunConfig\nflags (src/obs/runconfig.h): "
                 "--scale, --seed, --machine, --sampled,\n--serve-cache "
                 "DIR, --serve-bypass, ...\n";
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
    for (const Study &st : kStudies)
        if (sub == st.name) {
            Session session(cfg);
            return st.run(session);
        }
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
