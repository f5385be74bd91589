/**
 * @file
 * Shared plumbing for the bench binaries.
 *
 * Every paper-reproduction bench needs the same 32 x 45 metric
 * matrix. The benches get it from the content-addressed result store
 * bds_serve answers from (src/serve/store.h), keyed by the v2 config
 * hash, which covers every knob that changes the matrix: scale, seed,
 * machine, the sampling knobs, the fault knobs and the recovery
 * policy. The first run of a configuration characterizes the suite
 * and publishes the cell; every later run, and every bds_serve
 * request for the same cell, reads it back. Point --serve-cache /
 * BDS_SERVE_CACHE at an empty directory, or pass --serve-bypass, to
 * force re-simulation.
 *
 * All configuration — scale, seed, threads, sampling, metric subset,
 * tracing and manifests — comes from bds::RunConfig (src/obs), the
 * single entry point that resolves BDS_* environment variables and
 * --flags. See src/obs/runconfig.h for the full knob list. The
 * matrix is bitwise identical for every BDS_THREADS value (see
 * docs/THREADING.md), so the thread count is not part of the key.
 *
 * A matrix study resolves its session and reads the pipeline over
 * the cell (see the `repro` studies):
 *
 *   bds::Session session(bds::RunConfig::resolve("tool", argc, argv));
 *   auto res = bdsbench::characterizedPipeline(session);
 *   ... print the table/figure to stdout ...
 *
 * The Session destructor writes the run manifest (tool.manifest.json)
 * and, when BDS_TRACE=1, the trace summary.
 */

#ifndef BDS_BENCH_COMMON_H
#define BDS_BENCH_COMMON_H

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "core/csvio.h"
#include "core/pipeline.h"
#include "obs/session.h"
#include "serve/engine.h"
#include "serve/confighash.h"
#include "serve/store.h"
#include "uarch/machine.h"

namespace bdsbench {

/**
 * Machine for a bench that manages its own tiny flag set instead of
 * RunConfig (uarch_speed): BDS_MACHINE still wins, absent means the
 * Table III sim default. Funneled through RunConfig::applyEnv() — the
 * one env reader — and the preset registry, so the bench gets the
 * same strict validation as everything else.
 */
inline bds::NodeConfig
benchMachineFromEnv()
{
    bds::RunConfig cfg;
    cfg.applyEnv();
    return bds::resolveMachineSpec(cfg.machineSpec);
}

/**
 * Write the run-environment JSON object — "environment": {...} with
 * no trailing comma or newline — into a bench artifact. Performance
 * numbers are only comparable within one environment, so every
 * BENCH_*.json records where it was captured: core count, compiler,
 * build type and flags, and the kernel/arch.
 */
inline void
writeEnvironmentJson(std::ostream &os, const char *indent = "  ")
{
    os << indent << "\"environment\": {\n"
       << indent << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << indent << "  \"compiler\": \""
#if defined(__clang__)
       << "clang " << __VERSION__
#elif defined(__GNUC__)
       << "gcc " << __VERSION__
#else
       << "unknown"
#endif
       << "\",\n"
#ifdef BDS_BUILD_TYPE
       << indent << "  \"build_type\": \"" << BDS_BUILD_TYPE << "\",\n"
#endif
#ifdef BDS_BUILD_FLAGS
       << indent << "  \"flags\": \"" << BDS_BUILD_FLAGS << "\",\n"
#endif
       << indent << "  \"os\": \"";
#if defined(__unix__) || defined(__APPLE__)
    utsname u{};
    if (::uname(&u) == 0)
        os << u.sysname << ' ' << u.release << ' ' << u.machine;
    else
        os << "unknown";
#else
    os << "unknown";
#endif
    os << "\"\n" << indent << "}";
}

/**
 * The session's cell from the result store (--serve-cache /
 * BDS_SERVE_CACHE, budget --store-max-bytes), keyed by
 * runConfigHashHex(): a hit is a file read, a miss runs
 * characterizeCell() — the compute bds_serve runs — and publishes
 * the entry. --serve-bypass computes without touching the store, as
 * the daemon does. A quarantined sweep is returned but never cached.
 * The stage wall-clock, the sweep's failures and the entry path land
 * on the session's manifest.
 */
inline bds::ResultEntry
characterizedEntry(bds::Session &session)
{
    const bds::RunConfig &cfg = session.config();
    const auto t0 = std::chrono::steady_clock::now();
    const std::string hash = bds::runConfigHashHex(cfg);

    bds::SweepReport report;
    bool computed = false;
    auto compute = [&] {
        std::cerr << "[bench] characterizing 32 workloads at scale '"
                  << cfg.scaleName << "' on "
                  << cfg.parallel.resolved() << " thread(s)"
                  << (cfg.sampling.enabled ? ", sampled" : "")
                  << " (cell " << hash << ")\n";
        computed = true;
        return bds::characterizeCell(cfg, &report);
    };
    bds::ComputedResult result;
    std::string path;
    if (cfg.serve.bypassStore) {
        result = compute();
    } else {
        bds::ResultStore store(cfg.serve.storeDir,
                               cfg.serve.maxStoreBytes);
        bool hit = false;
        result = store.getOrCompute(hash, compute, &hit);
        if (result.cacheable && !store.storeDown())
            path = store.entryPath(hash);
        if (hit)
            std::cerr << "[bench] loaded cell " << hash << " from "
                      << store.dir() << '\n';
    }
    if (!result.cacheable)
        // A quarantined sweep is incomplete by design — never let its
        // shrunken matrix masquerade as the 32-row cell.
        std::cerr << "[bench] not caching: "
                  << result.quarantined.size()
                  << " workload(s) quarantined\n";

    session.recordSweep(report);
    session.recordStage(computed ? "characterize" : "load-cache",
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    if (!path.empty())
        session.noteArtifact(path);
    return std::move(result.entry);
}

/**
 * Get the session's cell (characterizedEntry) and run the paper's
 * pipeline over it. The analysis always reads the matrix back from
 * the entry's CSV, so a fresh compute, a store hit and a served
 * payload feed it the same 6-significant-digit values.
 */
inline bds::PipelineResult
characterizedPipeline(bds::Session &session)
{
    const bds::ResultEntry entry = characterizedEntry(session);
    bds::StageTimer stage(session, "analyze");
    std::istringstream in(entry.csv);
    bds::MetricTable table = bds::readMetricsCsv(in);
    const bds::Matrix metrics =
        bds::alignMetricTable(table, bds::MetricSet::tableII());
    return bds::runPipeline(metrics, table.names,
                            bds::pipelineOptionsFor(session.config()));
}

} // namespace bdsbench

#endif // BDS_BENCH_COMMON_H
