/**
 * @file
 * RunManifest: the self-description written next to every report and
 * bench artifact, so any CSV or BENCH_*.json can be traced back to
 * the exact configuration that produced it — resolved options (scale,
 * seed, threads, sampling knobs, metric set, trace knobs), library
 * version, per-stage wall-clock, peak RSS, and the artifacts the run
 * wrote.
 *
 * The manifest is plain JSON (schema in docs/OBSERVABILITY.md) and
 * round-trips: writeRunManifest() followed by parseRunManifest()
 * reproduces every resolved-option field bit for bit, which the
 * tests pin.
 */

#ifndef BDS_OBS_MANIFEST_H
#define BDS_OBS_MANIFEST_H

#include <iosfwd>
#include <string>
#include <vector>

#include "fault/status.h"
#include "obs/runconfig.h"

namespace bds {

/** The library version recorded in manifests and trace metadata. */
const char *bdsVersion();

/** Wall-clock of one named run stage. */
struct StageTime
{
    std::string name;     ///< stage label ("characterize", "analyze")
    double seconds = 0.0; ///< host wall-clock spent in the stage
};

/** Everything a run records about itself. */
struct RunManifest
{
    /** Manifest schema version (bumped on incompatible changes). */
    int manifestVersion = 1;

    /** The binary that ran ("characterize_suite", "repro"). */
    std::string tool;

    /** Library version string. */
    std::string version;

    /** Wall-clock creation time, ISO-8601 UTC. */
    std::string created;

    /** The command line, argv[0] included (empty when not captured). */
    std::vector<std::string> argv;

    /** The fully resolved run configuration. */
    RunConfig config;

    /** Per-stage wall-clock, in execution order. */
    std::vector<StageTime> stages;

    /** Wall-clock of the whole run. */
    double wallSeconds = 0.0;

    /** Peak resident set size in kilobytes (0 when unavailable). */
    long peakRssKb = 0;

    /** Paths of the artifacts the run wrote (reports, CSVs, JSON). */
    std::vector<std::string> artifacts;

    /**
     * Workloads that did not end Ok (retried, failed, timed out or
     * quarantined), in sweep order. Empty for clean runs — the field
     * is omitted from the JSON entirely, keeping pre-fault-layer
     * manifests byte-identical.
     */
    std::vector<RunRecord> failures;

    /** Names of the quarantined (dropped) workloads, in sweep order. */
    std::vector<std::string> quarantined;
};

/** Serialize `m` as pretty-printed JSON. */
void writeRunManifest(std::ostream &os, const RunManifest &m);

/** Parse a manifest written by writeRunManifest(). Fatal on errors. */
RunManifest parseRunManifest(std::istream &is);

/** parseRunManifest() over a file; fatal when unreadable. */
RunManifest readRunManifestFile(const std::string &path);

} // namespace bds

#endif // BDS_OBS_MANIFEST_H
