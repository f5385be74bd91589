/**
 * @file
 * The 32-workload registry: the paper's Table I matrix of 16
 * algorithms x {Hadoop, Spark}, with Table-I-derived relative input
 * sizes, plus the runner that executes any workload on a fresh
 * simulated node and extracts its 45-metric vector.
 */

#ifndef BDS_WORKLOADS_REGISTRY_H
#define BDS_WORKLOADS_REGISTRY_H

#include <functional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "fault/inject.h"
#include "fault/status.h"
#include "obs/runconfig.h"
#include "stats/matrix.h"
#include "trace/microop.h"
#include "uarch/config.h"
#include "metrics/schema.h"
#include "workloads/datagen.h"

namespace bds {

/** Which software stack a workload runs on. */
enum class StackKind : unsigned
{
    Hadoop, ///< MapReduce engine (Hive for the SQL workloads)
    Spark,  ///< RDD engine (Shark for the SQL workloads)
};

/** The 16 algorithms of Table I. */
enum class Algorithm : unsigned
{
    Sort,
    WordCount,
    Grep,
    Bayes,
    KMeans,
    PageRank,
    Projection,
    Filter,
    OrderBy,
    CrossProduct,
    Union,
    Difference,
    Aggregation,
    JoinQuery,
    AggQuery,
    SelectQuery,
};

/** Number of algorithms. */
constexpr unsigned kNumAlgorithms = 16;

/** Algorithm display name ("Sort", "AggQuery", ...). */
const char *algorithmName(Algorithm a);

/** Stack prefix as used in the paper's figures ("H" / "S"). */
const char *stackPrefix(StackKind s);

/** True for the ten SQL (interactive analytics) algorithms. */
bool isInteractive(Algorithm a);

/** One workload identity. */
struct WorkloadId
{
    Algorithm alg;
    StackKind stack;

    /** Paper-style label, e.g. "H-Sort" or "S-AggQuery". */
    std::string name() const;
};

/** All 32 workloads: the 16 Hadoop ones, then the 16 Spark ones. */
std::vector<WorkloadId> allWorkloads();

/**
 * Position of the workload named `name` ("H-Sort", "S-Grep", ...) in
 * allWorkloads(); an unknown name raises UnknownName.
 */
std::size_t workloadIndex(const std::string &name);

/** Relative input size of an algorithm (Table I problem sizes). */
double relativeInputSize(Algorithm a);

/** Result of executing one workload. */
struct WorkloadResult
{
    WorkloadId id;        ///< which workload ran
    PmcCounters counters; ///< aggregated raw events
    MetricVector metrics; ///< the 45 Table II metrics
    double wallSeconds = 0.0; ///< host wall-clock spent simulating
};

/**
 * The one guarded sweep every route runs (the full runAll, the
 * sampled runAll, the DSE driver): one pool task per workload, each
 * calling `body(i, ctx)` under guardedRun, which retries it up to
 * rec.maxRetries times and turns any failure into its RunRecord, so
 * a failure never abandons the remaining slots. The policy is
 * settled afterwards in list order, so the outcome is the same at
 * any thread count: under fail-fast the lowest-index failure is
 * rethrown as a typed bds::Error; under quarantine the failed
 * records are marked Quarantined. The fault.* counters are then
 * added; a zero add emits nothing, so clean traces stay unchanged.
 * @param body Writes slot i; it must derive every seed from the
 *        workload and ctx.attempt (never from shared state).
 * @return One record per id, in list order, and the survivor set.
 */
SweepReport guardedSweep(
    const std::vector<WorkloadId> &ids, const RecoveryOptions &rec,
    unsigned threads,
    const std::function<void(std::size_t, const AttemptContext &)>
        &body);

/**
 * The survivors x 45 matrix of a settled sweep: row r is
 * slots[report.survivors[r]].metrics.
 */
template <typename Slot>
Matrix
survivorMatrix(const std::vector<Slot> &slots,
               const SweepReport &report)
{
    Matrix m(report.survivors.size(), kNumMetrics);
    for (std::size_t row = 0; row < report.survivors.size(); ++row)
        for (std::size_t j = 0; j < kNumMetrics; ++j)
            m(row, j) = slots[report.survivors[row]].metrics[j];
    return m;
}

/** Wall-clock accounting for one runAll() sweep. */
struct SweepTiming
{
    /** Host seconds per surviving workload, in sweep row order. */
    std::vector<double> perWorkloadSeconds;

    /** Wall-clock of the whole sweep (not the sum of the rows). */
    double totalSeconds = 0.0;

    /** Worker threads the sweep actually used. */
    unsigned threads = 1;
};

/**
 * Executes workloads on freshly constructed simulated nodes.
 *
 * Every run builds its own SystemModel and address space, so runs
 * are independent and deterministic: the same (workload, scale,
 * seed) triple always produces the same metric vector, and both
 * stacks of an algorithm consume identically generated data.
 */
class WorkloadRunner
{
  public:
    /**
     * @param cfg Node configuration (Table III geometry).
     * @param scale Input scale profile.
     * @param seed Base seed for data generation.
     */
    WorkloadRunner(NodeConfig cfg, ScaleProfile scale,
                   std::uint64_t seed = 42);

    /**
     * The one construction path tools should use: resolve the
     * machine spec, scale name, seed, parallelism and recovery
     * policy out of a RunConfig. No call site needs to name
     * NodeConfig::defaultSim() — the machine axis always flows from
     * the config (BDS_MACHINE / --machine), so a sweep driver or a
     * user can retarget any tool without code changes.
     */
    static WorkloadRunner fromRunConfig(const RunConfig &cfg);

    /**
     * Simulate a multi-node cluster: each workload runs on `nodes`
     * independent nodes over per-node data shards, and the reported
     * metrics are the per-node means — the paper's protocol ("we
     * collect the data for all four slave nodes and take the mean").
     * Simulation cost scales linearly with the node count.
     * @param nodes Number of slave nodes (>= 1).
     */
    void setClusterNodes(unsigned nodes);

    /** Number of simulated slave nodes per run. */
    unsigned clusterNodes() const { return nodes_; }

    /**
     * Set the parallelism for runAll() and the per-node fan-out.
     *
     * `threads = 1` reproduces the serial sweep exactly; any other
     * value produces a bitwise-identical metric matrix (every
     * workload/node simulation is seeded independently and written
     * into its preallocated row slot) — only the wall clock changes.
     * Defaults to the hardware concurrency (`threads = 0`).
     */
    void setParallel(ParallelOptions par) { parallel_ = par; }

    /** The parallelism knob in effect. */
    const ParallelOptions &parallel() const { return parallel_; }

    /**
     * Set the failure-isolation policy for runAll(): what happens
     * when a workload throws or times out (fail-fast rethrow vs
     * quarantine-and-continue), how many bounded retries each
     * workload gets, and the per-attempt watchdog budget. The
     * default (fail-fast, no retries, no watchdog) reproduces the
     * pre-recovery behavior exactly.
     */
    void setRecovery(const RecoveryOptions &rec) { recovery_ = rec; }

    /** The recovery policy in effect. */
    const RecoveryOptions &recovery() const { return recovery_; }

    /** Run one workload to completion (nodes may run in parallel). */
    WorkloadResult run(const WorkloadId &id) const;

    /**
     * Drive one node's worth of a workload into an arbitrary
     * execution target: the stack engine, datasets, and seeds are
     * built exactly as in run(), so feeding a SystemModel here
     * reproduces a detailed node simulation, while feeding a
     * recording-only target (src/sample) captures the identical op
     * stream without paying for detailed simulation.
     * @param data_seed Per-node data seed (see nodeDataSeed()).
     */
    void execute(const WorkloadId &id, ExecTarget &target,
                 std::uint64_t data_seed) const;

    /** The data seed run() uses for shard `node` of a workload. */
    std::uint64_t nodeDataSeed(const WorkloadId &id,
                               unsigned node) const;

    /**
     * The data seed of retry attempt `attempt` for shard `node`.
     * Attempt 0 is nodeDataSeed() — a clean run is bitwise-identical
     * to the pre-recovery sweep — and each retry derives a distinct
     * deterministic seed that still depends on the algorithm and
     * node only (never the stack), preserving the identical-inputs
     * contract across reruns and thread counts.
     */
    std::uint64_t attemptDataSeed(const WorkloadId &id, unsigned node,
                                  unsigned attempt) const;

    /**
     * Run all 32 workloads through guardedSweep() under the
     * recovery policy (setRecovery): under fail-fast the
     * lowest-index failure is rethrown as a typed bds::Error; under
     * quarantine the failed rows are dropped and the survivors kept.
     * @param details Optional sink for the per-workload results,
     *        rows parallel to the returned matrix.
     * @param timing Optional sink for the wall-clock report, rows
     *        parallel to the returned matrix.
     * @param report Optional sink for the per-workload RunRecords
     *        (all 32, in allWorkloads() order) and the survivor set.
     * @return survivors x 45 metric matrix, rows in allWorkloads()
     *         order (all 32 rows on a clean run).
     */
    Matrix runAll(std::vector<WorkloadResult> *details = nullptr,
                  SweepTiming *timing = nullptr,
                  SweepReport *report = nullptr) const;

    /** The scale profile in use. */
    const ScaleProfile &scale() const { return scale_; }

    /** The node configuration in use. */
    const NodeConfig &config() const { return cfg_; }

  private:
    /** Run one workload on a single node with the given data seed. */
    WorkloadResult runOnNode(const WorkloadId &id,
                             std::uint64_t data_seed) const;

    /**
     * run() with an explicit thread budget for the node fan-out,
     * executing as attempt `ctx` (the attempt context is re-installed
     * inside the pool tasks, which do not inherit thread-locals).
     */
    WorkloadResult runWithThreads(const WorkloadId &id,
                                  unsigned node_threads,
                                  const AttemptContext &ctx = {}) const;

    NodeConfig cfg_;
    ScaleProfile scale_;
    std::uint64_t seed_;
    unsigned nodes_ = 1;
    ParallelOptions parallel_;
    RecoveryOptions recovery_;
};

} // namespace bds

#endif // BDS_WORKLOADS_REGISTRY_H
