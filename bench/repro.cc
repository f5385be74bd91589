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

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/context.h"
#include "common/table.h"
#include "core/findings.h"
#include "core/report.h"
#include "sample/characterizer.h"
#include "sample/estimate.h"
#include "stack/hadoop.h"
#include "stack/spark.h"
#include "stats/silhouette.h"
#include "store/record.h"
#include "trace/recorder.h"
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
 * A directory this process made (mkdtemp in the working directory),
 * removed with all it holds when the owner goes. The study's
 * checkpoint routes write only here, so they never read, reuse or
 * delete a directory the study did not create.
 */
class OwnedDir
{
  public:
    OwnedDir()
    {
        char name[] = "bds_sampled_ckpt.XXXXXX";
        if (!::mkdtemp(name))
            BDS_RAISE(ErrorCode::Io,
                      "cannot create a checkpoint directory in the "
                      "working directory");
        path_ = name;
    }
    ~OwnedDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    OwnedDir(const OwnedDir &) = delete;
    OwnedDir &operator=(const OwnedDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** What the representative entries in a cache directory hold. */
struct EntrySizes
{
    std::uint64_t entries = 0;
    std::uint64_t stateBytes = 0;
    std::uint64_t sliceBytes = 0;
    std::uint64_t sliceEvents = 0; ///< ops and DMA fills
};

/** Sum the entries (`*_i<interval>.ckpt`) under `dir`. */
EntrySizes
entrySizes(const std::string &dir, unsigned numCores)
{
    namespace fs = std::filesystem;
    EntrySizes sizes;
    for (const fs::directory_entry &f : fs::directory_iterator(dir)) {
        const std::string name = f.path().filename().string();
        if (name.find("_i") == std::string::npos
            || f.path().extension() != ".ckpt")
            continue;
        FileBytes bytes;
        if (!readFile(f.path().string(), &bytes))
            continue;
        const CheckpointEntry e =
            parseCheckpoint(std::move(bytes), f.path().string());
        sizes.sliceEvents +=
            TraceRecorder::decode(e.ops, numCores, name).size();
        sizes.stateBytes += e.state.size();
        sizes.sliceBytes += e.ops.size();
        ++sizes.entries;
    }
    return sizes;
}

/** One route of the sampled-vs-full study, over every round. */
struct Route
{
    explicit Route(const char *n) : name(n) {}

    const char *name;
    std::vector<double> runs; ///< each round's sweep seconds
    SampledReplayStats ops{}; ///< summed over the workloads
    CkptStats cache{};        ///< the route's checkpoint-counter delta

    /** Ops the route simulates: detailed plus warmed. */
    std::uint64_t simulated() const { return ops.detailOps + ops.warmOps; }
};

/**
 * The sampling contract, measured end to end over four routes of one
 * 32-workload sweep: `full` (every op detailed), `sampled`,
 * `ckpt-cold` (sampled, writing every representative's checkpoint
 * into a fresh directory) and `ckpt-warm` (sampled, restoring them
 * all). Three rounds run the routes in turn, each round's cold route
 * on a new directory; a route's seconds is the median of its rounds.
 * A route's `reduction` is the full route's simulated ops over its
 * own (detail + warm), and its `speedup` the same ratio of seconds.
 * The study reports both, the per-metric reconstruction error and
 * whether every paper finding keeps its verdict, writes
 * BENCH_sampled.json, and fails (exit 1) unless ckpt-warm's reduction
 * is at least 5 and twice sampled's, every sampled route's CSV is
 * byte-identical in every round, the warm route restores every
 * representative, and no finding flips.
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

    constexpr int kRounds = 3;
    std::cerr << "[bench] full, sampled, ckpt-cold and ckpt-warm sweeps "
                 "at scale '"
              << scale_name << "' (interval " << sampling.intervalUops
              << " uops, kMax " << sampling.kMax << ", warmup "
              << sampling.warmupIntervals << "), " << kRounds
              << " rounds\n";
    Route full_route("full"), sampled_route("sampled"),
        cold_route("ckpt-cold"), warm_route("ckpt-warm");
    std::vector<WorkloadResult> full_details;
    std::vector<SampledWorkloadResult> s_details;
    Matrix full, sampled;
    std::string first_csv;
    bool identical = true;
    EntrySizes sizes;

    // Time one route's sweep; its counts come from the first round,
    // as every round simulates the same ops.
    auto timed = [](Route &route, auto &&sweep) {
        const CkptStats before = ckptStats();
        const auto t0 = std::chrono::steady_clock::now();
        sweep();
        route.runs.push_back(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
        if (route.runs.size() > 1)
            return;
        const CkptStats after = ckptStats();
        route.cache.hits = after.hits - before.hits;
        route.cache.misses = after.misses - before.misses;
        route.cache.writes = after.writes - before.writes;
        route.cache.fallbacks = after.fallbacks - before.fallbacks;
        route.cache.bytesRead = after.bytesRead - before.bytesRead;
        route.cache.bytesWritten =
            after.bytesWritten - before.bytesWritten;
    };
    // One sampled sweep; its matrix must print the first one's CSV.
    auto sampledSweep = [&](Route &route,
                            const SampledCharacterizer &sampler) {
        std::vector<SampledWorkloadResult> d;
        Matrix m;
        timed(route, [&] { m = sampler.runAll(&d); });
        PipelineResult res;
        res.names = names;
        res.rawMetrics = m;
        std::ostringstream csv;
        writeMetricsCsv(csv, res);
        if (first_csv.empty())
            first_csv = csv.str();
        identical = identical && csv.str() == first_csv;
        if (route.runs.size() > 1)
            return;
        for (const SampledWorkloadResult &r : d)
            route.ops += r.stats;
        if (&route == &sampled_route) {
            sampled = std::move(m);
            s_details = std::move(d);
        }
    };

    SampledCharacterizer plain(runner, sampling);
    for (int k = 0; k < kRounds; ++k) {
        timed(full_route, [&] {
            std::vector<WorkloadResult> d;
            Matrix f = runner.runAll(&d);
            if (k == 0) {
                full = std::move(f);
                full_details = std::move(d);
            }
        });
        sampledSweep(sampled_route, plain);

        const OwnedDir dir;
        RunConfig ckpt_cfg = cfg;
        ckpt_cfg.ckpt.enabled = true;
        ckpt_cfg.ckpt.dir = dir.path();
        SampledCharacterizer checkpointing(runner, sampling);
        checkpointing.setCheckpoints(checkpointContextFor(ckpt_cfg));
        sampledSweep(cold_route, checkpointing);
        sampledSweep(warm_route, checkpointing);
        if (k == 0)
            sizes = entrySizes(dir.path(), runner.config().numCores);
    }

    // Every op of the stream is detailed on the full route.
    full_route.ops.totalOps = sampled_route.ops.totalOps;
    full_route.ops.detailOps = sampled_route.ops.totalOps;
    const Route *routes[] = {&full_route, &sampled_route, &cold_route,
                             &warm_route};
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    auto ratio = [](double n, double d) { return d > 0.0 ? n / d : 0.0; };
    auto reduction = [&](const Route &r) {
        return ratio(static_cast<double>(full_route.simulated()),
                     static_cast<double>(r.simulated()));
    };
    auto speedup = [&](const Route &r) {
        return ratio(median(full_route.runs), median(r.runs));
    };
    std::uint64_t reps = 0;
    for (const SampledWorkloadResult &r : s_details)
        reps += r.numReps;

    // --- per-metric error aggregation -------------------------------
    std::array<double, kNumMetrics> metric_err{};
    std::vector<MetricErrorReport> reports(ids.size());
    double mean_err = 0.0, max_err = 0.0;
    std::size_t worst_metric = 0, worst_workload = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
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
    std::cout << "sampled vs full characterization (" << ids.size()
              << " workloads, scale '" << scale_name << "', median of "
              << kRounds << " rounds)\n\n";
    TextTable t({"route", "seconds", "speedup", "detail ops", "warm ops",
                 "reduction", "restores", "writes", "fallbacks"});
    for (const Route *r : routes)
        t.addRow({r->name, fmtDouble(median(r->runs), 3),
                  fmtDouble(speedup(*r), 2),
                  std::to_string(r->ops.detailOps),
                  std::to_string(r->ops.warmOps),
                  fmtDouble(reduction(*r), 2),
                  std::to_string(r->ops.ckptRestores),
                  std::to_string(r->ops.ckptWrites),
                  std::to_string(r->cache.fallbacks)});
    t.print(std::cout);
    std::cout << std::setprecision(4) << std::fixed
              << "\n  reduction            full route's simulated ops "
                 "/ the route's (detail + warm)\n"
              << "  fast-forwarded       " << sampled_route.ops.skippedOps
              << " ops on the sampled route\n"
              << "  sampled CSVs         "
              << (identical ? "byte-identical" : "DIFFER")
              << " across routes and rounds\n"
              << "  representatives      " << reps << ", "
              << warm_route.ops.ckptRestores << " restored warm\n"
              << "  checkpoint entries   " << sizes.entries << ", mean "
              << ratio(static_cast<double>(sizes.stateBytes
                                           + sizes.sliceBytes),
                       static_cast<double>(sizes.entries)) / 1e6
              << " MB (state "
              << ratio(static_cast<double>(sizes.stateBytes),
                       static_cast<double>(sizes.entries)) / 1e6
              << " MB, slice "
              << ratio(static_cast<double>(sizes.sliceBytes),
                       static_cast<double>(sizes.sliceEvents))
              << " B/event)\n"
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
       << "  \"routes\": [";
    for (const Route *r : routes) {
        os << (r == routes[0] ? "\n    " : ",\n    ") << "{\"name\": "
           << q(r->name) << ", \"seconds\": " << median(r->runs)
           << ", \"runs\": [";
        for (std::size_t i = 0; i < r->runs.size(); ++i)
            os << (i ? ", " : "") << r->runs[i];
        os << "], \"speedup\": " << speedup(*r)
           << ", \"total_ops\": " << r->ops.totalOps
           << ", \"detail_ops\": " << r->ops.detailOps
           << ", \"warm_ops\": " << r->ops.warmOps
           << ", \"skipped_ops\": " << r->ops.skippedOps
           << ", \"reduction\": " << reduction(*r)
           << ", \"ckpt_restores\": " << r->ops.ckptRestores
           << ", \"ckpt_writes\": " << r->ops.ckptWrites
           << ", \"cache\": {\"hits\": " << r->cache.hits
           << ", \"misses\": " << r->cache.misses
           << ", \"writes\": " << r->cache.writes
           << ", \"fallbacks\": " << r->cache.fallbacks
           << ", \"bytes_read\": " << r->cache.bytesRead
           << ", \"bytes_written\": " << r->cache.bytesWritten << "}}";
    }
    os << "\n  ],\n"
       << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"representatives\": " << reps << ",\n"
       << "  \"entries\": {\"count\": " << sizes.entries
       << ", \"state_bytes\": " << sizes.stateBytes
       << ", \"slice_bytes\": " << sizes.sliceBytes
       << ", \"slice_events\": " << sizes.sliceEvents
       << ", \"mean_entry_bytes\": "
       << ratio(static_cast<double>(sizes.stateBytes + sizes.sliceBytes),
                static_cast<double>(sizes.entries))
       << ", \"slice_bytes_per_event\": "
       << ratio(static_cast<double>(sizes.sliceBytes),
                static_cast<double>(sizes.sliceEvents))
       << "},\n"
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

    // The sampling contract. Violations fail the study so CI catches
    // a drifting calibration or a restore that changes the bytes.
    const std::pair<bool, const char *> gates[] = {
        {reduction(warm_route) >= 5.0, "ckpt-warm reduction >= 5"},
        {reduction(warm_route) >= 2.0 * reduction(sampled_route),
         "ckpt-warm reduction >= 2x sampled"},
        {identical, "sampled CSVs byte-identical"},
        {reps > 0 && warm_route.ops.ckptRestores == reps,
         "ckpt-warm restores every representative"},
        {flipped.empty(), "no finding flips"},
    };
    bool pass = true;
    for (const auto &[held, what] : gates)
        if (!held) {
            std::cout << "  FAILED: " << what << "\n";
            pass = false;
        }
    std::cout << (pass ? "\nsampling contract: PASS\n"
                       : "\nsampling contract: FAIL\n");
    return pass ? 0 : 1;
}

/** The RunConfig knobs a study's output depends on (Study::reads). */
enum : unsigned
{
    kReadsScale = 1u << 0,
    kReadsSeed = 1u << 1,
    kReadsMachine = 1u << 2,
    kReadsSampled = 1u << 3,
    kReadsMetrics = 1u << 4,
    kReadsCkpt = 1u << 5, ///< --ckpt, --ckpt-dir, --ckpt-max-bytes
    kReadsCell = kReadsScale | kReadsSeed | kReadsMachine
        | kReadsSampled | kReadsMetrics | kReadsCkpt,
};

/** One study: an experiment of its own, run alone (not by `all`). */
struct Study
{
    const char *name;
    const char *title;
    int (*run)(Session &);
    unsigned reads;          ///< kReads* bits
    const char *pinnedScale; ///< the scale it always runs at, or null
};

const Study kStudies[] = {
    {"ablation-pipeline",
     "linkage, PC retention, K selection, representative strategy",
     ablationPipeline, kReadsCell, nullptr},
    {"ablation-engines",
     "code footprint transplanted across engines (WordCount)",
     ablationEngines, kReadsMachine, nullptr},
    {"cpi-stack", "per-workload CPI stacks at quick scale", cpiStack,
     kReadsSeed | kReadsMachine, "quick"},
    // Its checkpoint routes write directories of their own.
    {"sampled-vs-full",
     "full, sampled and checkpoint routes: ops, seconds, error, "
     "findings; writes BENCH_sampled.json",
     sampledVsFull, kReadsCell & ~kReadsCkpt, nullptr},
};

/**
 * Reject every knob set away from its RunConfig default that `st`
 * does not read, so a study never prints another experiment's bytes
 * under the knobs the user asked for. Its pinned scale is accepted.
 */
void
rejectIgnoredKnobs(const Study &st, const RunConfig &cfg)
{
    const RunConfig def;
    std::string ignored;
    auto check = [&](unsigned knob, bool set, const char *flag) {
        if (set && !(st.reads & knob))
            ignored += (ignored.empty() ? "" : ", ") + std::string(flag);
    };
    check(kReadsScale,
          cfg.scaleName != def.scaleName
              && !(st.pinnedScale && cfg.scaleName == st.pinnedScale),
          "--scale");
    check(kReadsSeed, cfg.seed != def.seed, "--seed");
    check(kReadsMachine, cfg.machineSpec != def.machineSpec,
          "--machine");
    check(kReadsSampled, cfg.sampling.enabled != def.sampling.enabled,
          "--sampled");
    check(kReadsMetrics, cfg.metricNames != def.metricNames,
          "--metrics");
    check(kReadsCkpt, cfg.ckpt.enabled != def.ckpt.enabled, "--ckpt");
    check(kReadsCkpt, cfg.ckpt.dir != def.ckpt.dir, "--ckpt-dir");
    check(kReadsCkpt, cfg.ckpt.maxBytes != def.ckpt.maxBytes,
          "--ckpt-max-bytes");
    if (!ignored.empty())
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "repro " << st.name << " ignores " << ignored
                           << "; unset it (flag or BDS_* variable)");
}

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
            rejectIgnoredKnobs(st, cfg);
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
