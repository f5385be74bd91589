/**
 * @file
 * bds::RunConfig — the single entry point that resolves environment
 * variables (BDS_*) and command-line flags into the options every
 * tool needs: scale, seed, worker threads, sampling knobs, metric
 * set, and the observability knobs (tracing, manifest emission).
 *
 * Resolution order (later wins):
 *   1. struct defaults (tool may pre-seed, e.g. quick scale),
 *   2. applyEnv()  — the BDS_* environment,
 *   3. applyArgs() — recognized --flags, leaving positionals to the
 *      tool.
 *
 * Every numeric knob is parsed strictly: a value that is not a plain
 * non-negative decimal integer is a fatal error, not a silent
 * default. RunConfig deliberately stores plain strings/ints for the
 * knobs interpreted by higher layers (scale name, metric names), so
 * the obs library depends only on bds_common; ScaleProfile::byName()
 * and MetricSet::fromNames() do the final conversion where those
 * types live.
 *
 * Environment:
 *   BDS_SCALE   = quick | standard | full   workload input scale
 *   BDS_SEED    = <uint>                    data-generation seed
 *   BDS_THREADS = <uint>                    0 = all cores, 1 = serial
 *   BDS_MACHINE = <spec>                    machine geometry: preset
 *                                           name and/or key=value
 *                                           overrides (resolved by
 *                                           resolveMachineSpec(),
 *                                           src/uarch/machine.h)
 *   BDS_METRICS = name,name,...             metric subset (empty =
 *                                           full Table II)
 *   BDS_SAMPLE          = 0 | 1             sampled characterization
 *   BDS_SAMPLE_INTERVAL = <uops>            interval size
 *   BDS_SAMPLE_BBV      = <buckets>         BBV hash dimensions
 *   BDS_SAMPLE_KMAX     = <k>               max interval clusters
 *   BDS_SAMPLE_WARMUP   = <intervals>       warm window (0 = all)
 *   BDS_SAMPLE_SEED     = <uint>            interval-clustering seed
 *   BDS_TRACE      = 0 | 1                  JSON-lines tracing
 *   BDS_TRACE_FILE = <path>                 trace sink (implies on)
 *   BDS_MANIFEST   = 0 | 1 | <path>         run-manifest emission
 *   BDS_FAIL_POLICY    = failfast | quarantine   sweep failure policy
 *   BDS_RETRIES        = <n>                retries per workload
 *   BDS_RUN_TIMEOUT_MS = <ms>               watchdog per attempt
 *                                           (0 = off)
 *   BDS_FAULT_THROW    = w1,w2 | *          inject exceptions
 *   BDS_FAULT_STALL    = w1,w2 | *          inject stalls
 *   BDS_FAULT_CORRUPT  = w1,w2 | *          poison extracted metrics
 *   BDS_FAULT_ALLOC    = site,... | *       fail named allocations
 *   BDS_FAULT_STALL_MS = <ms>               injected stall duration
 *   BDS_FAULT_ATTEMPTS = <n>                inject only while the
 *                                           attempt index < n
 *                                           (0 = every attempt); for
 *                                           BDS_FAULT_IO it caps the
 *                                           total number of fires
 *   BDS_FAULT_IO       = site,... | *       fail shared-store I/O
 *                                           sites (store.write,
 *                                           store.rename,
 *                                           store.lease,
 *                                           store.enospc)
 *   BDS_SERVE_SOCKET   = <path>             bds_serve Unix socket
 *   BDS_SERVE_CACHE    = <dir>              result-store directory
 *   BDS_SERVE_MAX_INFLIGHT = <n>            concurrent sweep bound
 *                                           (0 = all cores)
 *   BDS_SERVE_MAX_QUEUE = <n>               admission queue bound;
 *                                           excess requests shed
 *                                           with `err overloaded`
 *   BDS_SERVE_BYPASS   = 0 | 1              skip the result store
 *   BDS_SERVE_LOG      = <path>             request log: one protocol
 *                                           line per request
 *   BDS_STORE_MAX_BYTES = <bytes>           result-store byte budget
 *                                           (0 = unbounded)
 *   BDS_CKPT           = 0 | 1              interval checkpoint/
 *                                           restore
 *   BDS_CKPT_DIR       = <dir>              checkpoint cache
 *                                           directory (implies on)
 *   BDS_CKPT_MAX_BYTES = <bytes>            checkpoint-cache byte
 *                                           budget (0 = unbounded)
 *
 * Flags (each also accepts --flag=value):
 *   --scale S, --seed N, --threads N, --machine SPEC,
 *   --metrics a,b,c, --sampled,
 *   --trace, --no-trace, --trace-file PATH, --manifest PATH,
 *   --no-manifest, --fail-policy P, --retries N, --run-timeout-ms N,
 *   --fault-throw L, --fault-stall L, --fault-corrupt L,
 *   --fault-alloc L, --fault-stall-ms N, --fault-attempts N,
 *   --fault-io L,
 *   --serve-socket PATH, --serve-cache DIR, --serve-max-inflight N,
 *   --serve-max-queue N, --serve-bypass, --serve-log PATH,
 *   --store-max-bytes N,
 *   --ckpt, --no-ckpt, --ckpt-dir DIR, --ckpt-max-bytes N
 */

#ifndef BDS_OBS_RUNCONFIG_H
#define BDS_OBS_RUNCONFIG_H

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/options.h"
#include "common/parallel.h"
#include "fault/options.h"
#include "sample/options.h"
#include "serve/options.h"

namespace bds {

/** Fully resolved run options for one tool invocation. */
struct RunConfig
{
    /** The binary this configuration belongs to. */
    std::string tool = "bds";

    /** Scale profile name: quick, standard or full. */
    std::string scaleName = "standard";

    /** Data-generation seed (BDS_SEED). */
    std::uint64_t seed = 42;

    /**
     * Machine geometry spec (BDS_MACHINE / --machine): a preset name
     * ("default", "westmere", "l3-4m", ...) optionally followed by
     * comma-separated key=value overrides. Stored as a plain string
     * — like scaleName — so bds_obs stays below bds_uarch;
     * resolveMachineSpec() (src/uarch/machine.h) validates and
     * converts it where NodeConfig lives. The default resolves to
     * the Table III simulation machine, keeping every run without
     * the knob bitwise-identical to the pre-DSE tree.
     */
    std::string machineSpec = "default";

    /** Worker-thread knob (BDS_THREADS). */
    ParallelOptions parallel;

    /** Sampled-simulation knobs (BDS_SAMPLE*). */
    SamplingOptions sampling;

    /**
     * Recovery policy and fault-injection spec (BDS_FAIL_POLICY,
     * BDS_RETRIES, BDS_RUN_TIMEOUT_MS, BDS_FAULT_*). All defaults
     * are off, keeping runs bitwise-identical to the pre-fault-layer
     * behaviour unless a knob is set.
     */
    FaultOptions fault;

    /**
     * Serving knobs (BDS_SERVE_*): socket path, result-store
     * directory, in-flight bound, cache bypass, request log. Only
     * bds_serve reads them; serve.enabled marks a daemon config for
     * the manifest. Like SamplingOptions, the struct is a
     * dependency-free header so obs stays at the bottom of the
     * library stack.
     */
    ServeOptions serve;

    /**
     * Interval checkpoint/restore knobs (BDS_CKPT, BDS_CKPT_DIR).
     * Off by default — a run without the knob warms from zero,
     * bitwise-identical to the pre-checkpoint tree. Interpreted by
     * checkpointContextFor() (src/ckpt/context.h) where the cache
     * machinery lives; like the structs above, the options header is
     * dependency-free so bds_obs stays at the bottom of the stack.
     */
    CkptOptions ckpt;

    /**
     * Metric subset by canonical schema name; empty means the full
     * Table II set. Validated against the schema by
     * MetricSet::fromNames() at use time.
     */
    std::vector<std::string> metricNames;

    /** Emit JSON-lines trace events. */
    bool trace = false;

    /** Trace sink path; empty = "<tool>.trace.jsonl". */
    std::string tracePath;

    /** Write a RunManifest at the end of the run. */
    bool manifest = true;

    /** Manifest path; empty = "<tool>.manifest.json". */
    std::string manifestPath;

    /** The raw command line, captured by resolve()/applyArgs(). */
    std::vector<std::string> argv;

    /**
     * Env-then-args resolution for tools without positional
     * arguments: any argument applyArgs() does not consume is fatal.
     * Passing argc = 0 skips argument handling entirely.
     */
    static RunConfig resolve(const std::string &tool, int argc = 0,
                             char **argv = nullptr);

    /** Overlay the BDS_* environment onto this config. */
    void applyEnv();

    /**
     * Consume every recognized --flag from `args` and return the
     * leftovers (positionals and tool-specific arguments) in order.
     * Unknown flags are left for the tool to reject or interpret.
     */
    std::vector<std::string>
    applyArgs(const std::vector<std::string> &args);

    /** The trace sink path with the tool default applied. */
    std::string resolvedTracePath() const;

    /** The manifest path with the tool default applied. */
    std::string resolvedManifestPath() const;

    /** One-line human summary ("scale=quick seed=42 threads=8 ..."). */
    std::string describe() const;
};

namespace detail {

/**
 * Strict non-negative decimal parse shared by env and flag handling:
 * signs, whitespace, trailing junk or an empty value are fatal — a
 * typo in a knob must never silently become 0.
 */
std::uint64_t parseUint(const std::string &what,
                        const std::string &value);

} // namespace detail

} // namespace bds

#endif // BDS_OBS_RUNCONFIG_H
