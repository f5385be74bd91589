/**
 * @file
 * Sampled vs full characterization: the accuracy/speed contract of
 * the src/sample subsystem, measured end to end.
 *
 * Runs the 32-workload sweep twice — full detailed simulation and the
 * sampled path (interval profiling, representative picking, warmed
 * replay) — then reports:
 *   - the reduction in detail-simulated micro-ops and the wall-clock
 *     speedup of the characterization sweep,
 *   - the per-metric relative reconstruction error across the 45
 *     Table II metrics,
 *   - whether every encoded paper finding (Figure 1 neighbor merges,
 *     the Figure 5 directional contrasts, the observations) gets the
 *     same verdict from the sampled matrix as from the full one.
 *
 * The machine-readable result lands in BENCH_sampled.json so CI can
 * track the sampling contract across PRs. BDS_SAMPLE_* knobs override
 * the calibrated defaults; BDS_SCALE/BDS_SEED/BDS_THREADS work as in
 * every other bench.
 */

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>

#include "core/findings.h"
#include "sample/characterizer.h"
#include "sample/estimate.h"
#include "workloads/registry.h"
#include "bench_common.h"

namespace {

/** JSON-escape nothing fancy: metric names only use safe ASCII. */
std::string
q(const std::string &s)
{
    return '"' + s + '"';
}

} // namespace

int
main(int argc, char **argv)
{
    bds::Session session(
        bdsbench::benchConfig("sampled_vs_full", argc, argv));
    const bds::RunConfig &cfg = session.config();
    const std::string &scale_name = cfg.scaleName;
    bds::SamplingOptions sampling = cfg.sampling;
    sampling.enabled = true; // this bench always runs both paths

    bds::WorkloadRunner runner =
        bds::WorkloadRunner::fromRunConfig(cfg);
    auto ids = bds::allWorkloads();
    std::vector<std::string> names;
    for (const auto &id : ids)
        names.push_back(id.name());

    std::cerr << "[bench] full detailed sweep at scale '" << scale_name
              << "'\n";
    std::vector<bds::WorkloadResult> full_details;
    bds::SweepTiming full_timing;
    bds::Matrix full = runner.runAll(&full_details, &full_timing);

    std::cerr << "[bench] sampled sweep (interval "
              << sampling.intervalUops << " uops, kMax "
              << sampling.kMax << ", warmup "
              << sampling.warmupIntervals << ")\n";
    bds::SampledCharacterizer sampler(runner, sampling);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<bds::SampledWorkloadResult> s_details;
    bds::Matrix sampled = sampler.runAll(&s_details);
    double sampled_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - t0).count();

    // --- op accounting and per-metric error aggregation ------------
    std::uint64_t total_ops = 0, detail_ops = 0, warm_ops = 0,
                  skipped_ops = 0;
    std::array<double, bds::kNumMetrics> metric_err{};
    std::vector<bds::MetricErrorReport> reports(ids.size());
    double mean_err = 0.0, max_err = 0.0;
    std::size_t worst_metric = 0, worst_workload = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto &s = s_details[i];
        total_ops += s.stats.totalOps;
        detail_ops += s.stats.detailOps;
        warm_ops += s.stats.warmOps;
        skipped_ops += s.stats.skippedOps;
        reports[i] =
            bds::compareMetrics(full_details[i].metrics, s.metrics);
        mean_err += reports[i].meanError;
        for (std::size_t j = 0; j < bds::kNumMetrics; ++j)
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
    double reduction = detail_ops
        ? static_cast<double>(total_ops)
            / static_cast<double>(detail_ops)
        : 0.0;
    double speedup = sampled_seconds > 0.0
        ? full_timing.totalSeconds / sampled_seconds : 0.0;

    // --- do the paper findings survive sampling? --------------------
    bds::PipelineOptions popts = bds::pipelineOptionsFor(cfg);
    auto full_findings =
        bds::evaluatePaperFindings(bds::runPipeline(full, names, popts));
    auto sampled_findings = bds::evaluatePaperFindings(
        bds::runPipeline(sampled, names, popts));
    std::vector<std::string> flipped;
    for (std::size_t i = 0; i < full_findings.size(); ++i)
        if (full_findings[i].pass != sampled_findings[i].pass)
            flipped.push_back(full_findings[i].id);

    // --- human-readable report --------------------------------------
    std::cout << std::setprecision(4) << std::fixed;
    std::cout << "sampled vs full characterization ("
              << ids.size() << " workloads, scale '" << scale_name
              << "')\n\n"
              << "  micro-ops total      " << total_ops << "\n"
              << "  detail-simulated     " << detail_ops << " ("
              << reduction << "x reduction)\n"
              << "  warmed (frozen)      " << warm_ops << "\n"
              << "  fast-forwarded       " << skipped_ops << "\n"
              << "  full sweep           " << full_timing.totalSeconds
              << " s\n"
              << "  sampled sweep        " << sampled_seconds << " s ("
              << speedup << "x)\n"
              << "  mean metric error    " << mean_err << "\n"
              << "  worst metric error   " << max_err << " ("
              << bds::metricName(worst_metric) << " on "
              << names[worst_workload] << ")\n"
              << "  findings preserved   "
              << (full_findings.size() - flipped.size()) << "/"
              << full_findings.size() << "\n";
    for (const std::string &id : flipped)
        std::cout << "    FLIPPED: " << id << "\n";

    std::cout << "\n  per-metric mean relative error\n";
    for (std::size_t j = 0; j < bds::kNumMetrics; ++j)
        std::cout << "    " << std::left << std::setw(22)
                  << bds::metricName(j) << std::right << " "
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
       << "  \"ops\": {\"total\": " << total_ops << ", \"detail\": "
       << detail_ops << ", \"warm\": " << warm_ops
       << ", \"skipped\": " << skipped_ops << ", \"reduction\": "
       << reduction << "},\n"
       << "  \"wall_seconds\": {\"full\": " << full_timing.totalSeconds
       << ", \"sampled\": " << sampled_seconds << ", \"speedup\": "
       << speedup << "},\n"
       << "  \"error\": {\"mean\": " << mean_err << ", \"max\": "
       << max_err << ", \"worst_metric\": "
       << q(bds::metricName(worst_metric)) << ", \"worst_workload\": "
       << q(names[worst_workload]) << "},\n";
    os << "  \"per_metric_mean_rel_error\": {";
    for (std::size_t j = 0; j < bds::kNumMetrics; ++j)
        os << (j ? ", " : "") << q(bds::metricName(j)) << ": "
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
    // bench so CI catches a drifting calibration.
    bool pass = reduction >= 5.0 && flipped.empty();
    std::cout << (pass ? "\nsampling contract: PASS\n"
                       : "\nsampling contract: FAIL\n");
    return pass ? 0 : 1;
}
