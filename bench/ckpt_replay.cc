/**
 * @file
 * The checkpoint-replay benchmark: measures what the interval
 * checkpoint cache (src/ckpt, docs/CHECKPOINT.md) saves on an
 * incremental re-characterization, and pins the identity contract
 * while doing so.
 *
 * Three sampled passes over the selected workloads, same config:
 *
 *   baseline   checkpointing off — every replay warms from zero
 *   cold       checkpointing on, cache typically empty — replays
 *              warm from zero and write representative snapshots
 *   warm       checkpointing on, cache populated — replays restore
 *              the snapshots and feed them their slices: no stream,
 *              no warming
 *
 * The three passes must produce byte-identical metric CSVs (the
 * restore-identity contract; the bench exits 1 if they differ), and
 * the warm pass should replay a small fraction of the baseline's
 * detail + warming ops — `reduction` in BENCH_ckpt.json
 * (schema bds-ckpt-v1) is that ratio, which CI gates at >= 2x.
 *
 * Flags on top of the common set (--scale/--seed/--ckpt-dir/...):
 *   --ckpt-workloads a,b   workload subset (default: all 32)
 *   --ckpt-out PATH        artifact path (default BENCH_ckpt.json)
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/context.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/report.h"
#include "metrics/schema.h"
#include "obs/metrics.h"
#include "sample/characterizer.h"
#include "workloads/registry.h"
#include "bench_common.h"

namespace {

using namespace bds;

/** Everything one pass over the suite produced. */
struct PassResult
{
    std::string name;
    double seconds = 0.0;
    SampledReplayStats ops{}; ///< summed over the selected workloads
    CkptStats cache{};        ///< process-wide delta for this pass
    std::string csv;          ///< the pass's metric matrix as CSV
};

std::string
q(const std::string &s)
{
    return '"' + s + '"';
}

/** Run one sampled pass over `selected`, checkpointing or not. */
PassResult
runPass(const std::string &name, const RunConfig &cfg,
        const std::vector<WorkloadId> &selected, bool checkpointing)
{
    PassResult pass;
    pass.name = name;

    // The delta accounting needs a clean slate: the counters are
    // process-wide, and three passes share the process.
    counters::reset();

    WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    SampledCharacterizer sampler(runner, cfg.sampling);
    if (checkpointing) {
        RunConfig pcfg = cfg;
        pcfg.ckpt.enabled = true;
        sampler.setCheckpoints(checkpointContextFor(pcfg));
    }

    std::vector<SampledWorkloadResult> results(selected.size());
    const auto t0 = std::chrono::steady_clock::now();
    parallelFor(selected.size(), cfg.parallel, [&](std::size_t i) {
        results[i] = sampler.run(selected[i]);
    });
    pass.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    pass.cache = ckptStats();

    Matrix m(selected.size(), kNumMetrics);
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const SampledWorkloadResult &r = results[i];
        m.setRow(i, std::vector<double>(r.metrics.begin(),
                                        r.metrics.end()));
        pass.ops += r.stats;
    }
    PipelineResult res;
    for (const WorkloadId &id : selected)
        res.names.push_back(id.name());
    res.rawMetrics = m;
    std::ostringstream csv;
    writeMetricsCsv(csv, res);
    pass.csv = csv.str();
    return pass;
}

int
runCkptReplay(int argc, char **argv)
{
    RunConfig cfg;
    cfg.tool = "ckpt_replay";
    cfg.scaleName = "quick";
    cfg.argv.assign(argv, argv + argc);
    cfg.applyEnv();
    std::vector<std::string> args(argv + 1, argv + argc);
    std::vector<std::string> leftovers = cfg.applyArgs(args);

    std::vector<std::string> workload_names;
    std::string out_path = "BENCH_ckpt.json";
    for (auto it = leftovers.begin(); it != leftovers.end();) {
        auto value = [&](const char *flag) {
            it = leftovers.erase(it);
            if (it == leftovers.end())
                BDS_FATAL(flag << " needs a value");
            std::string v = *it;
            it = leftovers.erase(it);
            return v;
        };
        if (*it == "--ckpt-workloads")
            workload_names = splitList("--ckpt-workloads",
                                       value("--ckpt-workloads"));
        else if (*it == "--ckpt-out")
            out_path = value("--ckpt-out");
        else
            BDS_FATAL("unknown argument '" << *it
                      << "' (see docs/CHECKPOINT.md)");
    }
    // This bench measures the sampled path by definition; the
    // checkpoint switch is managed per pass below.
    cfg.sampling.enabled = true;

    Session session(cfg);

    std::vector<WorkloadId> all = allWorkloads();
    std::vector<WorkloadId> selected;
    if (workload_names.empty())
        selected = all;
    else
        for (const std::string &name : workload_names)
            selected.push_back(all[workloadIndex(name)]);

    std::cerr << "[ckpt] 3 passes x " << selected.size()
              << " workloads, scale '" << cfg.scaleName
              << "', cache dir " << cfg.ckpt.dir << "\n";

    std::vector<PassResult> passes;
    passes.push_back(runPass("baseline", cfg, selected, false));
    passes.push_back(runPass("cold", cfg, selected, true));
    passes.push_back(runPass("warm", cfg, selected, true));

    // --- the identity contract: three byte-identical matrices ------
    const bool identical = passes[1].csv == passes[0].csv
        && passes[2].csv == passes[0].csv;

    // --- what the warm rerun saved ----------------------------------
    const double base_work = static_cast<double>(
        passes[0].ops.detailOps + passes[0].ops.warmOps);
    const double warm_work = static_cast<double>(
        passes[2].ops.detailOps + passes[2].ops.warmOps);
    const double reduction =
        base_work / std::max(warm_work, 1.0);

    std::cout << "checkpoint replay — " << selected.size()
              << " workloads (scale '" << cfg.scaleName << "')\n\n";
    TextTable t({"pass", "seconds", "detail ops", "warm ops",
                 "restores", "writes", "cache hits", "fallbacks"});
    for (const PassResult &p : passes)
        t.addRow({p.name, fmtDouble(p.seconds, 3),
                  std::to_string(p.ops.detailOps),
                  std::to_string(p.ops.warmOps),
                  std::to_string(p.ops.ckptRestores),
                  std::to_string(p.ops.ckptWrites),
                  std::to_string(p.cache.hits),
                  std::to_string(p.cache.fallbacks)});
    t.print(std::cout);
    std::cout << "\nmatrices byte-identical: "
              << (identical ? "yes" : "NO") << "\n"
              << "detail+warm op reduction (baseline / warm rerun): "
              << fmtDouble(reduction, 2) << "x\n";

    std::ofstream os(out_path);
    os << std::setprecision(6) << std::fixed;
    os << "{\n"
       << "  \"bench\": \"ckpt_replay\",\n"
       << "  \"schema\": \"bds-ckpt-v1\",\n"
       << "  \"scale\": " << q(cfg.scaleName) << ",\n"
       << "  \"seed\": " << cfg.seed << ",\n"
       << "  \"machine\": " << q(cfg.machineSpec) << ",\n"
       << "  \"ckpt_dir\": " << q(cfg.ckpt.dir) << ",\n"
       << "  \"workloads\": " << selected.size() << ",\n";
    bdsbench::writeEnvironmentJson(os, "  ");
    os << ",\n  \"passes\": [";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const PassResult &p = passes[i];
        os << (i ? ",\n    " : "\n    ") << "{\"name\": " << q(p.name)
           << ", \"seconds\": " << p.seconds
           << ", \"total_ops\": " << p.ops.totalOps
           << ", \"detail_ops\": " << p.ops.detailOps
           << ", \"warm_ops\": " << p.ops.warmOps
           << ", \"skipped_ops\": " << p.ops.skippedOps
           << ", \"ckpt_restores\": " << p.ops.ckptRestores
           << ", \"ckpt_writes\": " << p.ops.ckptWrites
           << ", \"cache\": {\"hits\": " << p.cache.hits
           << ", \"misses\": " << p.cache.misses
           << ", \"writes\": " << p.cache.writes
           << ", \"fallbacks\": " << p.cache.fallbacks
           << ", \"bytes_read\": " << p.cache.bytesRead
           << ", \"bytes_written\": " << p.cache.bytesWritten
           << "}}";
    }
    os << "\n  ],\n"
       << "  \"identical\": " << (identical ? "true" : "false")
       << ",\n"
       << "  \"reduction\": " << reduction << "\n"
       << "}\n";
    session.noteArtifact(out_path);
    std::cout << "\n-> " << out_path << "\n";

    if (!identical) {
        std::cerr << "ckpt_replay: restored replay diverged from "
                     "warm-from-zero — the identity contract is "
                     "broken\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runCkptReplay(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "ckpt_replay: " << e.what() << "\n";
        return 1;
    }
}
