/**
 * @file
 * The design-space-exploration driver: sweep the machine-preset
 * matrix over the 32-workload suite and measure what the geometry
 * changes — the N-configs × 32-workloads experiment of the paper's
 * tech-report sequel (arXiv:1506.07943), ROADMAP item 4.
 *
 * Default mode is the sampled path: each workload is captured once
 * per distinct core count (record + profile + pick, machine-
 * independent) and the one capture is replayed against every preset
 * geometry — the trace-driven methodology that makes a 14-preset
 * sweep cost little more than one characterization. --dse-full runs
 * full detailed simulation per cell instead.
 *
 * Per preset the driver reports the 45 suite-mean metrics, their
 * relative deltas against the `default` geometry (the sensitivity
 * curves), and — when the full suite ran — which of the paper's
 * findings flip their verdict under that geometry. Everything lands
 * in BENCH_dse.json (schema bds-dse-v1). A full-suite sweep also
 * publishes each preset's matrix to the result store (--serve-cache),
 * keyed by that preset's config hash, so reruns are warm and `repro`
 * and bds_serve answer the same cell from the same file.
 *
 * Flags on top of the common set (--scale/--seed/--threads/...):
 *   --dse-presets a,b,c    preset subset (default: whole registry;
 *                          `default` is always included as baseline)
 *   --dse-workloads a,b    workload subset (default: all 32)
 *   --dse-full             full detailed simulation per cell
 *   --dse-out PATH         artifact path (default BENCH_dse.json)
 *
 * The sweep runs through guardedSweep (workloads/registry.h), the
 * one sweep every route shares: each workload's capture + replays
 * run under the session's recovery policy, so an injected fault
 * quarantines one workload row across every preset instead of
 * killing the sweep, counts its fault.* events and lands in the run
 * manifest.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "ckpt/context.h"
#include "common/table.h"
#include "core/findings.h"
#include "core/report.h"
#include "metrics/schema.h"
#include "sample/capture.h"
#include "serve/engine.h"
#include "serve/confighash.h"
#include "serve/store.h"
#include "uarch/machine.h"
#include "workloads/registry.h"
#include "bench_common.h"

namespace {

using namespace bds;

/** One (preset, workload) cell of the sweep. */
struct Cell
{
    MetricVector metrics{};
    SampledReplayStats stats{};
    std::size_t intervals = 0;
    std::size_t k = 0;
    std::size_t reps = 0;
    double seconds = 0.0;
};

/** Everything the sweep produced for one preset. */
struct PresetResult
{
    const MachinePreset *preset = nullptr;
    bool cached = false;     ///< metrics came from the result store
    double seconds = 0.0;    ///< wall-clock of this preset's column
    Matrix metrics;          ///< survivors x 45
    std::vector<Cell> cells; ///< per selected workload (when computed)
    std::vector<Finding> findings;
    std::vector<std::string> flips; ///< finding ids flipped vs default
};

std::string
q(const std::string &s)
{
    return '"' + s + '"';
}

/** Suite mean of every metric column over the surviving rows. */
std::vector<double>
suiteMean(const Matrix &m)
{
    std::vector<double> mean(m.cols(), 0.0);
    if (m.rows() == 0)
        return mean;
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            mean[c] += m.at(r, c);
    for (double &v : mean)
        v /= static_cast<double>(m.rows());
    return mean;
}

int
runDse(int argc, char **argv)
{
    // Common knobs via the examples' leftover-args pattern: the DSE
    // flags below are not RunConfig's business.
    RunConfig cfg;
    cfg.tool = "dse_sweep";
    cfg.scaleName = "quick"; // N x 32 cells: quick is the sane default
    cfg.argv.assign(argv, argv + argc);
    cfg.applyEnv();
    std::vector<std::string> args(argv + 1, argv + argc);
    std::vector<std::string> leftovers = cfg.applyArgs(args);

    std::vector<std::string> preset_names;
    std::vector<std::string> workload_names;
    bool full_mode = false;
    std::string out_path = "BENCH_dse.json";
    for (auto it = leftovers.begin(); it != leftovers.end();) {
        auto value = [&](const char *flag) {
            it = leftovers.erase(it);
            if (it == leftovers.end())
                BDS_FATAL(flag << " needs a value");
            std::string v = *it;
            it = leftovers.erase(it);
            return v;
        };
        if (*it == "--dse-presets")
            preset_names = splitList("--dse-presets",
                                     value("--dse-presets"));
        else if (*it == "--dse-workloads")
            workload_names = splitList("--dse-workloads",
                                       value("--dse-workloads"));
        else if (*it == "--dse-out")
            out_path = value("--dse-out");
        else if (*it == "--dse-full") {
            full_mode = true;
            it = leftovers.erase(it);
        } else {
            BDS_FATAL("unknown argument '" << *it
                      << "' (see docs/DSE.md)");
        }
    }
    // The DSE default is the sampled path; --dse-full overrides even
    // an inherited BDS_SAMPLE=1.
    cfg.sampling.enabled = !full_mode;

    Session session(cfg);

    // --- resolve the preset selection (baseline always first) -------
    std::vector<const MachinePreset *> presets;
    if (preset_names.empty())
        for (const MachinePreset &p : machinePresets())
            presets.push_back(&p);
    else {
        if (std::find(preset_names.begin(), preset_names.end(),
                      "default") == preset_names.end())
            preset_names.insert(preset_names.begin(), "default");
        for (const std::string &name : preset_names) {
            const MachinePreset *p = findMachinePreset(name);
            if (!p)
                BDS_FATAL("unknown machine preset '" << name
                          << "' (`repro table3` lists the registry)");
            presets.push_back(p);
        }
    }

    // --- resolve the workload selection ------------------------------
    std::vector<WorkloadId> all = allWorkloads();
    std::vector<WorkloadId> selected;
    if (workload_names.empty())
        selected = all;
    else
        for (const std::string &name : workload_names)
            selected.push_back(all[workloadIndex(name)]);
    const bool full_suite = selected.size() == all.size();

    std::cerr << "[dse] " << presets.size() << " presets x "
              << selected.size() << " workloads, scale '"
              << cfg.scaleName << "', "
              << (full_mode ? "full detailed" : "sampled replay")
              << " cells\n";

    // --- warm cells from the result store (full suite only: a cell
    // is the 32-row matrix every bench and bds_serve share) ----------
    std::vector<PresetResult> results(presets.size());
    std::vector<std::string> names;
    ResultStore store(cfg.serve.storeDir, cfg.serve.maxStoreBytes);
    auto presetConfig = [&](std::size_t p) {
        RunConfig pcfg = cfg;
        pcfg.machineSpec = presets[p]->name;
        return pcfg;
    };
    for (std::size_t p = 0; p < presets.size(); ++p) {
        results[p].preset = presets[p];
        if (!full_suite || cfg.serve.bypassStore)
            continue;
        ResultEntry entry;
        try {
            if (!store.load(runConfigHashHex(presetConfig(p)), &entry))
                continue;
        } catch (const Error &e) {
            std::cerr << "[dse] recomputing " << presets[p]->name
                      << ": " << e.what() << '\n';
            continue;
        }
        std::istringstream in(entry.csv);
        MetricTable table = readMetricsCsv(in);
        results[p].cached = true;
        results[p].metrics = alignMetricTable(table, MetricSet::tableII());
        names = std::move(table.names);
    }

    // --- per-preset checkpoint contexts (--ckpt/--ckpt-dir). The
    // checkpoint key hashes the canonical geometry text, not the
    // preset name, so geometry-compatible presets (and warm reruns of
    // the same sweep) share one checkpoint stream in the common dir.
    std::vector<CheckpointContext> ckpts(presets.size());
    if (cfg.ckpt.enabled && !full_mode)
        for (std::size_t p = 0; p < presets.size(); ++p)
            ckpts[p] = checkpointContextFor(presetConfig(p));

    // --- group the uncached presets by core count: one capture per
    // (workload, core count), replayed across the group --------------
    std::map<unsigned, std::vector<std::size_t>> groups;
    for (std::size_t p = 0; p < presets.size(); ++p)
        if (!results[p].cached)
            groups[presets[p]->config.numCores].push_back(p);

    // One runner per core-count group; the capture only reads the
    // geometry's core count, so the group leader's config serves
    // every preset in the group.
    std::map<unsigned, WorkloadRunner> runners;
    for (const auto &[cores, members] : groups)
        runners.emplace(cores,
                        WorkloadRunner(presets[members.front()]->config,
                                       ScaleProfile::byName(cfg.scaleName),
                                       cfg.seed));

    std::vector<std::vector<Cell>> cells(
        presets.size(), std::vector<Cell>(selected.size()));
    auto t0 = std::chrono::steady_clock::now();
    const SweepReport report = guardedSweep(
        selected, cfg.fault.recovery,
        cfg.parallel.resolvedFor(selected.size()),
        [&](std::size_t i, const AttemptContext &) {
            if (groups.empty())
                return; // every preset came from the store
            const WorkloadId id = selected[i];
            // Same injection sites as the sweep layers this driver
            // bypasses (SampledCharacterizer::run), so the CI fault
            // matrix exercises DSE cells too; corruption injection
            // lives inside replayCapture.
            FaultInjector::global().maybeThrow(id.name());
            FaultInjector::global().maybeStall(id.name());
            for (const auto &[cores, members] : groups) {
                const WorkloadRunner &runner = runners.at(cores);
                WorkloadCapture cap;
                if (!full_mode)
                    cap = captureWorkload(runner, cfg.sampling, id, 0);
                for (std::size_t p : members) {
                    auto c0 = std::chrono::steady_clock::now();
                    Cell &cell = cells[p][i];
                    if (full_mode) {
                        WorkloadRunner detailed(
                            presets[p]->config,
                            ScaleProfile::byName(cfg.scaleName),
                            cfg.seed);
                        cell.metrics = detailed.run(id).metrics;
                    } else {
                        SampledWorkloadResult r = replayCapture(
                            cap, presets[p]->config, cfg.sampling,
                            ckpts[p].enabled() ? &ckpts[p] : nullptr);
                        cell.metrics = r.metrics;
                        cell.stats = r.stats;
                        cell.intervals = r.numIntervals;
                        cell.k = r.k;
                        cell.reps = r.numReps;
                    }
                    cell.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - c0).count();
                }
            }
        });
    session.recordSweep(report);
    const std::vector<std::size_t> &survivors = report.survivors;
    if (!groups.empty())
        std::cerr << "[dse] swept " << groups.size()
                  << " core-count group(s) in "
                  << std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0).count()
                  << " s\n";
    if (names.empty())
        for (std::size_t i : survivors)
            names.push_back(selected[i].name());

    // --- assemble per-preset matrices, publish cells ----------------
    for (std::size_t p = 0; p < presets.size(); ++p) {
        PresetResult &res = results[p];
        if (res.cached)
            continue;
        res.metrics = survivorMatrix(cells[p], report);
        for (std::size_t i : survivors)
            res.seconds += cells[p][i].seconds;
        res.cells = cells[p];
        if (full_suite && survivors.size() == all.size()
            && !cfg.serve.bypassStore) {
            const RunConfig pcfg = presetConfig(p);
            if (store.store(makeResultEntry(pcfg, names, res.metrics,
                                            res.seconds)))
                session.noteArtifact(
                    store.entryPath(runConfigHashHex(pcfg)));
        }
    }

    // --- sensitivity curves vs the default baseline. The delta is
    // symmetric-relative — divided by the larger magnitude of the two
    // means — so it stays in [-1, 1] even for metrics whose baseline
    // is (near) zero, e.g. a miss ratio a bigger cache drives to 0.
    const std::vector<double> base_mean =
        suiteMean(results.front().metrics);
    std::vector<std::vector<double>> means(presets.size());
    std::vector<std::vector<double>> deltas(presets.size());
    for (std::size_t p = 0; p < presets.size(); ++p) {
        means[p] = suiteMean(results[p].metrics);
        deltas[p].resize(means[p].size());
        for (std::size_t j = 0; j < means[p].size(); ++j) {
            double denom = std::max(
                {std::abs(base_mean[j]), std::abs(means[p][j]),
                 1e-9});
            deltas[p][j] = (means[p][j] - base_mean[j]) / denom;
        }
    }

    // --- findings per preset (full suite only: the encoded claims
    // assume the paper's 32 rows) ------------------------------------
    const bool evaluate_findings =
        full_suite && survivors.size() == all.size();
    if (evaluate_findings) {
        PipelineOptions popts = pipelineOptionsFor(cfg);
        for (std::size_t p = 0; p < presets.size(); ++p) {
            popts.machine = presets[p]->config;
            results[p].findings = evaluatePaperFindings(
                runPipeline(results[p].metrics, names, popts));
        }
        const std::vector<Finding> &base = results.front().findings;
        for (std::size_t p = 1; p < presets.size(); ++p)
            for (std::size_t f = 0; f < base.size(); ++f)
                if (results[p].findings[f].pass != base[f].pass)
                    results[p].flips.push_back(base[f].id);
    }

    // --- human-readable report --------------------------------------
    std::cout << "DSE sweep — " << presets.size() << " machine presets"
              << " x " << survivors.size() << " workloads (scale '"
              << cfg.scaleName << "', "
              << (full_mode ? "full detailed" : "sampled replay")
              << ")\n\n";
    TextTable t({"preset", "machine", "source", "mean |rel delta|",
                 "findings flipped"});
    for (std::size_t p = 0; p < presets.size(); ++p) {
        double mad = 0.0;
        for (double d : deltas[p])
            mad += std::abs(d);
        mad /= deltas[p].empty() ? 1.0
                                 : static_cast<double>(deltas[p].size());
        std::string flips = "-";
        if (evaluate_findings) {
            flips = std::to_string(results[p].flips.size());
            if (!results[p].flips.empty()) {
                flips += " (";
                for (std::size_t f = 0; f < results[p].flips.size();
                     ++f)
                    flips += (f ? ", " : "") + results[p].flips[f];
                flips += ")";
            }
        }
        t.addRow({presets[p]->name,
                  describeMachine(presets[p]->config),
                  results[p].cached ? "cache" : "swept",
                  fmtDouble(mad, 4), flips});
    }
    t.print(std::cout);

    if (evaluate_findings) {
        std::cout << "\nfindings-flip table (pass/FAIL per preset; "
                     "baseline = default)\n";
        // Column per non-default preset that flips anything.
        std::vector<std::size_t> flip_cols;
        for (std::size_t p = 1; p < presets.size(); ++p)
            if (!results[p].flips.empty())
                flip_cols.push_back(p);
        std::vector<std::string> header{"finding", "default"};
        for (std::size_t p : flip_cols)
            header.push_back(presets[p]->name);
        TextTable flip_table(header);
        const std::vector<Finding> &base = results.front().findings;
        for (std::size_t f = 0; f < base.size(); ++f) {
            bool any = false;
            for (std::size_t p : flip_cols)
                if (results[p].findings[f].pass != base[f].pass)
                    any = true;
            if (!any)
                continue;
            std::vector<std::string> row{
                base[f].id, base[f].pass ? "pass" : "FAIL"};
            for (std::size_t p : flip_cols)
                row.push_back(results[p].findings[f].pass ? "pass"
                                                          : "FAIL");
            flip_table.addRow(row);
        }
        if (flip_table.rows() == 0)
            std::cout << "  (no finding flips under any swept "
                         "geometry)\n";
        else
            flip_table.print(std::cout);
    }

    // --- machine-readable artifact ----------------------------------
    std::ofstream os(out_path);
    os << std::setprecision(6) << std::fixed;
    os << "{\n"
       << "  \"bench\": \"dse_sweep\",\n"
       << "  \"schema\": \"bds-dse-v1\",\n"
       << "  \"scale\": " << q(cfg.scaleName) << ",\n"
       << "  \"seed\": " << cfg.seed << ",\n"
       << "  \"sampled\": " << (full_mode ? "false" : "true") << ",\n";
    bdsbench::writeEnvironmentJson(os, "  ");
    os << ",\n  \"workloads\": [";
    for (std::size_t i = 0; i < names.size(); ++i)
        os << (i ? ", " : "") << q(names[i]);
    os << "],\n  \"metric_names\": [";
    for (std::size_t j = 0; j < kNumMetrics; ++j)
        os << (j ? ", " : "") << q(metricName(j));
    os << "],\n  \"presets\": [";
    for (std::size_t p = 0; p < presets.size(); ++p) {
        os << (p ? ",\n    " : "\n    ") << "{\n"
           << "      \"name\": " << q(presets[p]->name) << ",\n"
           << "      \"summary\": " << q(presets[p]->summary) << ",\n"
           << "      \"geometry\": "
           << q(canonicalMachineText(presets[p]->config)) << ",\n"
           << "      \"config_hash\": " << q(runConfigHashHex(presetConfig(p)))
           << ",\n"
           << "      \"cores\": " << presets[p]->config.numCores
           << ",\n"
           << "      \"cached\": "
           << (results[p].cached ? "true" : "false") << ",\n"
           << "      \"seconds\": " << results[p].seconds << ",\n"
           << "      \"suite_mean\": [";
        for (std::size_t j = 0; j < means[p].size(); ++j)
            os << (j ? ", " : "") << means[p][j];
        os << "],\n      \"rel_delta_vs_default\": [";
        for (std::size_t j = 0; j < deltas[p].size(); ++j)
            os << (j ? ", " : "") << deltas[p][j];
        os << "],\n      \"findings\": {\"evaluated\": "
           << (evaluate_findings ? "true" : "false") << ", \"total\": "
           << results[p].findings.size() << ", \"passed\": ";
        std::size_t passed = 0;
        for (const Finding &f : results[p].findings)
            passed += f.pass ? 1 : 0;
        os << passed << ", \"flipped_vs_default\": [";
        for (std::size_t f = 0; f < results[p].flips.size(); ++f)
            os << (f ? ", " : "") << q(results[p].flips[f]);
        os << "]},\n      \"cells\": [";
        bool first = true;
        if (!results[p].cached)
            for (std::size_t i : survivors) {
                const Cell &cell = results[p].cells[i];
                os << (first ? "\n        " : ",\n        ")
                   << "{\"name\": " << q(selected[i].name())
                   << ", \"status\": "
                   << q(runStatusName(report.records[i].status))
                   << ", \"attempts\": " << report.records[i].attempts
                   << ", \"seconds\": " << cell.seconds
                   << ", \"total_ops\": " << cell.stats.totalOps
                   << ", \"detail_ops\": " << cell.stats.detailOps
                   << ", \"intervals\": " << cell.intervals
                   << ", \"k\": " << cell.k
                   << ", \"reps\": " << cell.reps
                   << ", \"ckpt_restores\": "
                   << cell.stats.ckptRestores
                   << ", \"ckpt_writes\": " << cell.stats.ckptWrites
                   << "}";
                first = false;
            }
        os << (first ? "]" : "\n      ]") << "\n    }";
    }
    os << "\n  ]\n}\n";
    session.noteArtifact(out_path);
    std::cout << "\n-> " << out_path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runDse(argc, argv);
    } catch (const std::exception &e) {
        // A settled fail-fast failure or a typed config error: exit
        // nonzero with the cause, like every sweep layer.
        std::cerr << "dse_sweep: " << e.what() << "\n";
        return 1;
    }
}
