/**
 * @file
 * Canonical RunConfig serialization and the content-address of the
 * result store: runConfigHash().
 *
 * The serving layer answers a request from the cache iff the fully
 * resolved configuration that would recompute it hashes to an
 * existing entry, so the hash must cover exactly the fields that can
 * change the 45-metric matrix and nothing else:
 *
 *  - INCLUDED: scale name, data seed, the resolved machine geometry
 *    (two machines must never alias one cell; the *resolved*
 *    canonical text is hashed, so "westmere" and the equivalent
 *    explicit override spec share a cell), every sampling knob, the
 *    recovery policy and the fault-injection spec (an injected run
 *    must never alias a clean cell).
 *  - EXCLUDED: worker threads (the matrix is bitwise-identical at
 *    any thread count — docs/THREADING.md), tracing/manifest knobs
 *    (observation is bitwise-neutral — docs/OBSERVABILITY.md), the
 *    tool name and argv, the serve transport knobs, and the metric
 *    subset (the store always holds the full Table II matrix; a
 *    subset is a projection applied at response time, so requests
 *    differing only in their metric selection share one cell).
 *
 * The canonical form is versioned text (one "key=value" line per
 * field, fixed order). kConfigHashSchemaVersion is baked into the
 * serialization: adding a result-relevant field to RunConfig must
 * come with a version bump, which retires every stale cache entry
 * instead of letting keys silently alias across schemas. A stability
 * test (tests/serve/test_confighash.cc) pins the hash of a fixed
 * configuration so accidental drift fails loudly.
 */

#ifndef BDS_SERVE_CONFIGHASH_H
#define BDS_SERVE_CONFIGHASH_H

#include <cstdint>
#include <string>

#include "obs/runconfig.h"

namespace bds {

/**
 * Version of the canonical serialization. Bump when a field is
 * added, removed or reinterpreted; every cache key changes and the
 * store cleanly recomputes instead of serving stale bytes.
 *
 * v1: scale/seed/sampling/recovery/fault.
 * v2: + the resolved machine geometry (the DSE axis).
 */
constexpr unsigned kConfigHashSchemaVersion = 2;

/**
 * The canonical text form of the result-relevant fields of `cfg`,
 * deterministic across platforms and runs.
 */
std::string canonicalRunConfig(const RunConfig &cfg);

/** FNV-1a 64-bit over canonicalRunConfig(cfg). */
std::uint64_t runConfigHash(const RunConfig &cfg);

/** runConfigHash() as 16 lowercase hex digits (the store key). */
std::string runConfigHashHex(const RunConfig &cfg);

/**
 * FNV-1a 64-bit of an arbitrary byte string: the config hashes and
 * the pinned CSV digests. Store payloads are checksummed with the
 * word-wise stateChecksum() (store/record.h) instead.
 */
std::uint64_t fnv1a64(const std::string &bytes);

/** A std::uint64_t as 16 lowercase hex digits. */
std::string toHex64(std::uint64_t v);

} // namespace bds

#endif // BDS_SERVE_CONFIGHASH_H
