/**
 * @file
 * The serving request format: the text line protocol clients speak,
 * which is also the format of the daemon's request log.
 *
 * A characterization request names a cell of the sweep space —
 * workload set x scale x seed x metric set x sim/sample config — in
 * one line:
 *
 *   characterize scale=quick seed=42 [sampled=0|1] [bypass=0|1]
 *                [machine=default|westmere|l3-4m|...]
 *                [workloads=all|H-Sort,S-Grep,...]
 *                [metrics=all|LOAD,ILP,SSE_FP,...]
 *
 * Metric names spell their spaces as '_' on the wire ("SSE FP"
 * travels as "SSE_FP") because tokens split on whitespace. The
 * machine key accepts registry preset names only — the record stores
 * a preset index; free-form key=value override specs are a
 * library/CLI feature (--machine), not a wire one.
 *
 * parseRequestLine() resolves it strictly (unknown keys, unknown
 * workload or metric names, malformed integers are typed
 * InvalidConfig errors) into a RequestRecord; formatRequestLine()
 * renders the canonical text back, and that canonical line is what
 * the request log (BDS_SERVE_LOG) holds, one per accepted request.
 */

#ifndef BDS_SERVE_REQUEST_H
#define BDS_SERVE_REQUEST_H

#include <cstdint>
#include <string>
#include <vector>

#include "fault/error.h"

namespace bds {

/** Request verbs carried by a record. */
enum class ServeOp : std::uint32_t
{
    Characterize = 0, ///< run/fetch one characterization cell
};

/** RequestRecord.flags bits. */
enum : std::uint32_t
{
    kServeFlagSampled = 1u << 0, ///< sampled-simulation path
    kServeFlagBypass = 1u << 1,  ///< skip the result store
};

/** One parsed request: the cell it names and its projection. */
struct RequestRecord
{
    std::uint32_t op = 0;    ///< ServeOp
    std::uint32_t scale = 0; ///< 0 quick / 1 standard / 2 full
    std::uint64_t seed = 42; ///< data-generation seed
    std::uint32_t flags = 0; ///< kServeFlag* bits

    /**
     * Requested workload rows: bit i selects allWorkloads()[i].
     * All-ones (the default) is the full 32-workload suite.
     */
    std::uint32_t workloadMask = 0xffffffffu;

    /**
     * Requested metric columns: bit i selects schema metric i.
     * 0 means the full Table II set (the common case stays the
     * byte-identical full-width CSV).
     */
    std::uint64_t metricMask = 0;

    /**
     * Machine geometry as an index into machinePresets() (0 is the
     * Table III default).
     */
    std::uint32_t machine = 0;

    bool operator==(const RequestRecord &) const = default;
};

/** Scale name of a record's scale field; fatal on junk values. */
std::string serveScaleName(std::uint32_t scale);

/** Scale field value of a scale name; fatal on unknown names. */
std::uint32_t serveScaleIndex(const std::string &name);

/**
 * Preset name of a record's machine field; Error(InvalidConfig) on
 * indices beyond the registry.
 */
std::string serveMachineName(std::uint32_t machine);

/**
 * Machine field value of a preset name. Error(UnknownName) for
 * non-preset names, including override specs — the wire carries
 * registry presets only.
 */
std::uint32_t serveMachineIndex(const std::string &name);

/** Workload names selected by `mask`, in allWorkloads() order. */
std::vector<std::string> workloadNamesFromMask(std::uint32_t mask);

/**
 * Schema metric names selected by `mask`, in schema order; empty for
 * mask 0 (the full set).
 */
std::vector<std::string> metricNamesFromMask(std::uint64_t mask);

/**
 * Parse one protocol line into a record. Raises
 * Error(InvalidConfig) on unknown verbs, unknown keys, unknown
 * workload/metric names, or malformed values.
 */
RequestRecord parseRequestLine(const std::string &line);

/** The canonical text form of a record (parses back identically). */
std::string formatRequestLine(const RequestRecord &req);

} // namespace bds

#endif // BDS_SERVE_REQUEST_H
