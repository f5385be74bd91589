/**
 * @file
 * Full characterization walk-through: run the 32-workload suite,
 * normalize + PCA + cluster the metrics, and print the similarity
 * analysis — the paper's Sections III-V as twenty lines of user
 * code.
 *
 * Runs at quick scale by default so it finishes in seconds; pass
 * "standard" or "full" as argv[1] for the larger scales, and a
 * worker-thread count as argv[2] (default: all cores; the result is
 * identical for every thread count — see docs/THREADING.md). Pass
 * "sampled" as a trailing argument to run the sampled-simulation
 * path side by side with the full sweep and see how closely the
 * estimated metrics track the detailed ones (docs/SAMPLING.md).
 * The common flags and BDS_* environment knobs work too — see
 * --help and examples/common.h.
 *
 * `characterize_suite --list-metrics` prints the Table II metric
 * schema — name, unit kind, derivation, and description — straight
 * from src/metrics (docs/METRICS.md) and exits.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bds/bds.h"
#include "common.h"

namespace {

/** Print the metric schema as an aligned table and exit. */
int
listMetrics(std::ostream &os)
{
    bds::TextTable t({"#", "NAME", "UNIT", "DERIVATION",
                      "DESCRIPTION"});
    for (const bds::MetricSpec &spec : bds::metricSchema())
        t.addRow({std::to_string(
                      static_cast<std::size_t>(spec.id) + 1),
                  spec.name, bds::unitKindName(spec.unit),
                  bds::metricFormula(spec), spec.description});
    t.print(os);
    os << '\n' << t.rows()
       << " metrics (the paper's Table II); pass any subset "
          "of the NAME column to MetricSet::fromNames().\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bds;

    const bdsex::ExampleSpec spec{
        "characterize_suite",
        "Characterize the 32-workload suite and print the paper's "
        "similarity analysis.",
        "[quick|standard|full] [threads] [sampled]",
        "Pass --list-metrics to print the Table II metric schema and "
        "exit."};

    return bdsex::runExample(spec, argc, argv, [](
        RunConfig cfg, std::vector<std::string> args,
        bdsex::ExampleIo &io) -> int {

        // Legacy positional interface: a scale word, a numeric thread
        // count, and the word "sampled", in any order after the scale.
        for (auto it = args.begin(); it != args.end();)
            if (*it == "sampled") {
                cfg.sampling.enabled = true;
                it = args.erase(it);
            } else if (*it == "--list-metrics") {
                return listMetrics(io.out);
            } else {
                ++it;
            }
        if (!args.empty())
            cfg.scaleName = args[0];
        if (args.size() > 1)
            cfg.parallel.threads = static_cast<unsigned>(
                detail::parseUint("threads", args[1]));

        Session session(cfg);

        // 1. Measure: 45 metrics per workload on a simulated node;
        //    the sweep fans out one pool task per workload.
        std::cerr << "characterizing 32 workloads at scale '"
                  << cfg.scaleName << "' on "
                  << cfg.parallel.resolved() << " thread(s)...\n";
        WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
        Matrix metrics;
        SweepReport report;
        {
            StageTimer stage(session, "characterize");
            SweepTiming timing;
            metrics = runner.runAll(nullptr, &timing, &report);
            std::cerr << "swept the suite in " << timing.totalSeconds
                      << " s\n";
        }
        session.recordSweep(report);
        // Under quarantine the analysis continues on the survivors;
        // on a clean run this is all 32 workloads.
        std::vector<std::string> names = report.survivorNames();

        // 1b. Optional: the sampled path next to the full sweep. The
        //     SampledCharacterizer replays only representative
        //     intervals in detail; the pipeline below then runs on
        //     its estimated matrix instead of the measured one.
        if (cfg.sampling.enabled) {
            StageTimer stage(session, "sample");
            SampledCharacterizer sampler(runner, cfg.sampling);
            // --ckpt: restore representative-interval state from the
            // shared cache instead of re-warming (docs/CHECKPOINT.md).
            if (cfg.ckpt.enabled)
                sampler.setCheckpoints(checkpointContextFor(cfg));
            std::vector<SampledWorkloadResult> details;
            SweepReport sampled_report;
            Matrix estimated = sampler.runAll(&details,
                                              &sampled_report);
            session.recordSweep(sampled_report);
            names = sampled_report.survivorNames();
            std::uint64_t total = 0, detail_ops = 0;
            for (const auto &d : details) {
                total += d.stats.totalOps;
                detail_ops += d.stats.detailOps;
            }
            std::cerr << "sampled sweep: " << total
                      << " uops executed, " << detail_ops
                      << " simulated in detail ("
                      << (detail_ops
                          ? static_cast<double>(total) / detail_ops
                          : 0)
                      << "x reduction)\n";
            metrics = estimated;
        }

        // 2. Analyze: z-score -> PCA (Kaiser) -> single-linkage
        //    clustering -> BIC-selected K-means (the K sweep reuses
        //    the same thread budget).
        PipelineResult res;
        {
            StageTimer stage(session, "analyze");
            res = runPipeline(metrics, names, pipelineOptionsFor(cfg));
        }

        // 3. Report.
        writePcaSummary(io.out, res);
        io.out << '\n' << res.dendrogram.renderAscii(res.names)
               << '\n';
        writeSimilarityObservations(io.out, res);
        io.out << '\n';
        writeStackDifferentiationReport(io.out, res);
        if (!io.outputPath.empty())
            session.noteArtifact(io.outputPath);
        return 0;
    });
}
