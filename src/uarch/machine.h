/**
 * @file
 * The machine model as a first-class, named axis.
 *
 * The paper characterizes its 32 workloads on exactly one machine
 * (Table III); the sequel tech report (arXiv:1506.07943) varies the
 * machine too, and that is where the architectural implications
 * live. This header turns NodeConfig from an implicit constant into
 * an explicit parameter: a registry of named presets (the Table III
 * default plus cache-size, associativity, core-count and predictor
 * variants), a strict spec parser ("westmere", "l3-4m", or
 * "default,l2=512k,cores=8"-style overrides), construction-time
 * geometry validation, and a canonical one-line rendering that the
 * serve layer folds into the content-addressed result hash so two
 * machines can never alias one store cell.
 *
 * Layering: lives in bds_uarch (needs NodeConfig) and raises typed
 * bds::Error (bds_fault). RunConfig carries the *spec string* only,
 * so bds_obs stays at the bottom of the stack; callers resolve it
 * here, mirroring ScaleProfile::byName().
 */

#ifndef BDS_UARCH_MACHINE_H
#define BDS_UARCH_MACHINE_H

#include <string>
#include <vector>

#include "uarch/config.h"

namespace bds {

/** One named machine geometry. */
struct MachinePreset
{
    std::string name;    ///< registry key ("default", "l3-4m", ...)
    std::string summary; ///< one-line human description
    NodeConfig config;   ///< the geometry itself (validated)
};

/**
 * The preset registry, in stable sweep order: `default` first, then
 * the paper machine, then the cache/core/predictor variants of the
 * tech report's sweep. The order is part of the serve wire format
 * (RequestRecord.machine indexes it), so presets are only ever
 * appended, never reordered.
 */
const std::vector<MachinePreset> &machinePresets();

/** Registry lookup; nullptr when `name` is not a preset. */
const MachinePreset *findMachinePreset(const std::string &name);

/** Registry lookup; raises Error(UnknownName) for unknown names. */
NodeConfig machineByName(const std::string &name);

/**
 * Index of a preset in machinePresets(); raises Error(UnknownName)
 * for non-preset names (override specs have no wire index).
 */
std::size_t machinePresetIndex(const std::string &name);

/**
 * Resolve a machine spec string into a validated NodeConfig.
 *
 * Grammar (comma-separated, no whitespace):
 *
 *   spec     := "" | preset | preset "," overrides | overrides
 *   override := key "=" value
 *
 * An empty spec or "default" is the Table III default; a spec that
 * starts with overrides applies them to the default. Keys ('-' and
 * '_' are interchangeable):
 *
 *   cores=N               core count (1..64)
 *   l1i= l1d= l2= l3=     cache capacity (suffix k/K, m/M, g/G)
 *   l1i_assoc= ... l3_assoc=  ways per set
 *   line=N                line size of every level (power of two)
 *   itlb= dtlb= stlb=     TLB entries
 *   page=N                page size (suffixes allowed)
 *   history=N             gshare history bits (1..24)
 *   lfb=N                 line-fill buffers per core
 *   issue=N               issue width (uops/cycle)
 *
 * Unknown presets are Error(UnknownName); unknown keys, malformed
 * values and invalid resulting geometry are Error(InvalidConfig) —
 * a typo never silently becomes the default machine.
 */
NodeConfig resolveMachineSpec(const std::string &spec);

/**
 * Reject impossible geometry with Error(InvalidConfig): zero or
 * >64 cores (the snoop-holder bitmask is 64 bits wide), non-power-
 * of-two line or page sizes, cache/TLB capacities that do not divide
 * into whole sets, pages smaller than a line, zero issue width or
 * fill buffers, or a degenerate/oversized gshare history.
 */
void validateMachineConfig(const NodeConfig &cfg);

/**
 * Canonical one-line rendering of a geometry (fixed field order, no
 * newline). Equal machines render identically whatever spec spelled
 * them, so this — not the spec string — is what confighash folds
 * into the result-store key.
 */
std::string canonicalMachineText(const NodeConfig &cfg);

/** True when `cfg` is exactly the Table III simulation default. */
bool isDefaultMachine(const NodeConfig &cfg);

/**
 * Filesystem-safe slug of a spec ("westmere,l2=512k" ->
 * "westmere-l2-512k") for artifact names.
 */
std::string machineSlug(const std::string &spec);

/** Human summary ("4 cores, L1 32K/32K, L2 256K, L3 12M, ..."). */
std::string describeMachine(const NodeConfig &cfg);

} // namespace bds

#endif // BDS_UARCH_MACHINE_H
