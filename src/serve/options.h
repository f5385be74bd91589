/**
 * @file
 * Knobs for the characterization-as-a-service daemon (bds_serve).
 *
 * Kept dependency-free (strings and integers only) so RunConfig can
 * embed a ServeOptions without bds_obs linking the serving machinery;
 * ServeEngine/ServeServer (src/serve) interpret the knobs.
 *
 * Options-struct convention (shared with PipelineOptions,
 * SamplingOptions and CkptOptions — see docs/CHECKPOINT.md "One
 * options convention"):
 *  - `enabled` is the master switch and defaults to off;
 *  - directory fields end in `Dir`, file fields end in `Path`;
 *  - RunConfig is the only env/flag funnel — no struct reads
 *    getenv() itself.
 *
 * Environment / flags (resolved by RunConfig, strict like every
 * other BDS_* knob — garbage values are fatal, never silent
 * defaults):
 *   BDS_SERVE_SOCKET      = <path>   --serve-socket PATH
 *   BDS_SERVE_CACHE       = <dir>    --serve-cache DIR
 *   BDS_SERVE_MAX_INFLIGHT= <n>      --serve-max-inflight N
 *   BDS_SERVE_MAX_QUEUE   = <n>      --serve-max-queue N
 *   BDS_SERVE_BYPASS      = 0 | 1    --serve-bypass
 *   BDS_SERVE_LOG         = <path>   --serve-log PATH
 *   BDS_STORE_MAX_BYTES   = <bytes>  --store-max-bytes N
 */

#ifndef BDS_SERVE_OPTIONS_H
#define BDS_SERVE_OPTIONS_H

#include <cstdint>
#include <string>

namespace bds {

/** Configuration of the serving front end. */
struct ServeOptions
{
    /**
     * True inside a serving tool (bds_serve sets it). Controls only
     * whether manifests persist the serve block; the batch tools
     * still validate the BDS_SERVE_* environment strictly.
     */
    bool enabled = false;

    /**
     * Unix-domain socket to listen on. Empty — the default — serves
     * the line protocol on stdin/stdout instead.
     */
    std::string socketPath;

    /**
     * Directory of the content-addressed result store. One file per
     * distinct resolved configuration, named by its runConfigHash.
     * (The env knob stays BDS_SERVE_CACHE and the manifest wire key
     * stays "cache_dir" — on-disk/wire compatibility outlives field
     * spellings.)
     */
    std::string storeDir = "bds_serve_cache";

    /**
     * Maximum characterization sweeps computed concurrently; cache
     * hits are never throttled. 0 resolves to the hardware
     * concurrency.
     */
    unsigned maxInFlight = 0;

    /**
     * Bounded admission queue ahead of the in-flight gate: at most
     * this many computes may be *waiting* for an in-flight slot;
     * excess requests are shed with a typed `err overloaded` instead
     * of queueing unboundedly. 0 sheds anything beyond maxInFlight.
     * The default is deliberately generous — shedding is a safety
     * valve, not a scheduler.
     */
    unsigned maxQueue = 1024;

    /**
     * Byte budget of the result store (BDS_STORE_MAX_BYTES); entries
     * beyond it are evicted least-recently-used. 0 = unbounded, the
     * pre-budget behaviour.
     */
    std::uint64_t maxStoreBytes = 0;

    /**
     * Skip the result store entirely: every request recomputes and
     * nothing is written. For A/B-checking the store path itself.
     */
    bool bypassStore = false;

    /**
     * Durable request log: every accepted request is appended as a
     * fixed-size binary record (src/serve/request.h), replayable with
     * `bds_serve --replay` and bench/serve_replay. Empty = no log.
     */
    std::string logPath;
};

} // namespace bds

#endif // BDS_SERVE_OPTIONS_H
