#include "workloads/registry.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <memory>

#include "common/log.h"
#include "fault/recover.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stack/hadoop.h"
#include "stack/spark.h"
#include "stack/sql.h"
#include "uarch/machine.h"
#include "uarch/system.h"
#include "workloads/offline.h"

namespace bds {

const char *
algorithmName(Algorithm a)
{
    switch (a) {
      case Algorithm::Sort: return "Sort";
      case Algorithm::WordCount: return "WordCount";
      case Algorithm::Grep: return "Grep";
      case Algorithm::Bayes: return "Bayes";
      case Algorithm::KMeans: return "Kmeans";
      case Algorithm::PageRank: return "PageRank";
      case Algorithm::Projection: return "Projection";
      case Algorithm::Filter: return "Filter";
      case Algorithm::OrderBy: return "OrderBy";
      case Algorithm::CrossProduct: return "CrossProduct";
      case Algorithm::Union: return "Union";
      case Algorithm::Difference: return "Difference";
      case Algorithm::Aggregation: return "Aggregation";
      case Algorithm::JoinQuery: return "JoinQuery";
      case Algorithm::AggQuery: return "AggQuery";
      case Algorithm::SelectQuery: return "SelectQuery";
    }
    BDS_PANIC("unknown algorithm");
}

const char *
stackPrefix(StackKind s)
{
    return s == StackKind::Hadoop ? "H" : "S";
}

bool
isInteractive(Algorithm a)
{
    return static_cast<unsigned>(a)
        >= static_cast<unsigned>(Algorithm::Projection);
}

std::string
WorkloadId::name() const
{
    return std::string(stackPrefix(stack)) + "-" + algorithmName(alg);
}

std::vector<WorkloadId>
allWorkloads()
{
    std::vector<WorkloadId> out;
    for (StackKind s : {StackKind::Hadoop, StackKind::Spark})
        for (unsigned a = 0; a < kNumAlgorithms; ++a)
            out.push_back(WorkloadId{static_cast<Algorithm>(a), s});
    return out;
}

std::size_t
workloadIndex(const std::string &name)
{
    const std::vector<WorkloadId> all = allWorkloads();
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].name() == name)
            return i;
    BDS_RAISE(ErrorCode::UnknownName,
              "unknown workload '" << name
                                   << "' (names are H-Sort, S-Grep, ...)");
}

double
relativeInputSize(Algorithm a)
{
    // Derived from Table I: 98 GB text == 420 M records == 1.0.
    switch (a) {
      case Algorithm::Sort: return 0.8;          // 80 GB
      case Algorithm::WordCount: return 1.0;     // 98 GB
      case Algorithm::Grep: return 1.0;          // 98 GB
      case Algorithm::Bayes: return 0.85;        // 84 GB
      case Algorithm::KMeans: return 0.45;       // 44 GB
      case Algorithm::PageRank: return 0.6;      // 2^24-vertex graph
      case Algorithm::Projection: return 1.0;    // 420 M records
      case Algorithm::Filter: return 1.0;        // 420 M records
      case Algorithm::OrderBy: return 1.0;       // 420 M records
      case Algorithm::CrossProduct: return 0.25; // 100 M records
      case Algorithm::Union: return 1.0;         // 420 M records
      case Algorithm::Difference: return 0.25;   // 100 M records
      case Algorithm::Aggregation: return 1.0;   // 420 M records
      case Algorithm::JoinQuery: return 0.25;    // 100 M records
      case Algorithm::AggQuery: return 1.0;      // 420 M records
      case Algorithm::SelectQuery: return 1.0;   // 420 M records
    }
    BDS_PANIC("unknown algorithm");
}

WorkloadRunner::WorkloadRunner(NodeConfig cfg, ScaleProfile scale,
                               std::uint64_t seed)
    : cfg_(cfg), scale_(scale), seed_(seed)
{
}

WorkloadRunner
WorkloadRunner::fromRunConfig(const RunConfig &cfg)
{
    WorkloadRunner runner(resolveMachineSpec(cfg.machineSpec),
                          ScaleProfile::byName(cfg.scaleName),
                          cfg.seed);
    runner.setParallel(cfg.parallel);
    runner.setRecovery(cfg.fault.recovery);
    return runner;
}

void
WorkloadRunner::setClusterNodes(unsigned nodes)
{
    if (nodes == 0)
        BDS_FATAL("cluster needs at least one node");
    nodes_ = nodes;
}

WorkloadResult
WorkloadRunner::run(const WorkloadId &id) const
{
    return runWithThreads(id, parallel_.resolvedFor(nodes_));
}

WorkloadResult
WorkloadRunner::runWithThreads(const WorkloadId &id,
                               unsigned node_threads,
                               const AttemptContext &ctx) const
{
    // Data seeds depend on the algorithm only: both stacks consume
    // identically generated inputs (the paper's "identical data
    // sets" requirement). Each cluster node processes its own shard
    // with a node-derived seed, so node simulations are independent
    // and can fan out across the pool.
    TraceSpan span("workload.run", "workload", id.name());
    auto start = std::chrono::steady_clock::now();
    FaultInjector::global().maybeThrow(id.name());
    FaultInjector::global().maybeStall(id.name());
    std::vector<WorkloadResult> per_node(nodes_);
    parallelFor(nodes_, node_threads, [&](std::size_t node) {
        // Pool threads do not inherit the attempt context; install
        // it so the watchdog deadline covers the node simulations.
        AttemptScope scope(ctx);
        faultCheckpoint();
        per_node[node] = runOnNode(
            id, attemptDataSeed(id, static_cast<unsigned>(node),
                                ctx.attempt));
    });

    // Reduce in fixed node order so the mean is bitwise identical to
    // the serial accumulation regardless of the thread count.
    WorkloadResult total = std::move(per_node[0]);
    if (nodes_ > 1) {
        MetricVector mean = total.metrics;
        for (unsigned node = 1; node < nodes_; ++node) {
            const WorkloadResult &per = per_node[node];
            total.counters += per.counters;
            for (std::size_t i = 0; i < kNumMetrics; ++i)
                mean[i] += per.metrics[i];
        }
        for (double &v : mean)
            v /= static_cast<double>(nodes_);
        total.metrics = mean;
    }
    total.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - start).count();
    return total;
}

std::uint64_t
WorkloadRunner::nodeDataSeed(const WorkloadId &id, unsigned node) const
{
    // Data seeds depend on the algorithm only: both stacks consume
    // identically generated inputs (the paper's "identical data
    // sets" requirement). Each cluster node processes its own shard
    // with a node-derived seed, so node simulations are independent.
    return seed_ + 1000 * static_cast<std::uint64_t>(id.alg)
        + 7919ULL * static_cast<std::uint64_t>(node);
}

std::uint64_t
WorkloadRunner::attemptDataSeed(const WorkloadId &id, unsigned node,
                                unsigned attempt) const
{
    // Attempt 0 is the plain node seed, so a run that never retries
    // is bitwise-identical to the pre-recovery sweep. Retries salt
    // the seed with an attempt-dependent odd constant: distinct per
    // attempt, still a function of (algorithm, node) only, so both
    // stacks keep consuming identical retry data.
    std::uint64_t s = nodeDataSeed(id, node);
    if (attempt == 0)
        return s;
    return s + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(attempt);
}

void
WorkloadRunner::execute(const WorkloadId &id, ExecTarget &target,
                        std::uint64_t data_seed) const
{
    AddressSpace space;

    std::unique_ptr<StackEngine> engine;
    if (id.stack == StackKind::Hadoop)
        engine = std::make_unique<MapReduceEngine>(target, space);
    else
        engine = std::make_unique<RddEngine>(target, space);

    std::uint64_t n = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(
            static_cast<double>(scale_.unitRecords)
            * relativeInputSize(id.alg)),
        64);
    unsigned parts = scale_.partitions;

    if (isInteractive(id.alg)) {
        SqlLayer sql(*engine);
        Dataset big = makeTable(space, n, n / 8 + 16, parts, 256,
                                data_seed);
        switch (id.alg) {
          case Algorithm::CrossProduct: {
            Dataset small =
                makeTable(space, 8, 64, 1, 256, data_seed + 1);
            sql.run(SqlOp::CrossProduct, big, &small);
            break;
          }
          case Algorithm::Union: {
            Dataset other = makeTable(space, n / 2, n / 8 + 16, parts,
                                      256, data_seed + 1);
            sql.run(SqlOp::Union, big, &other);
            break;
          }
          case Algorithm::Difference: {
            Dataset other = makeTable(space, n / 2, n / 8 + 16, parts,
                                      256, data_seed + 1);
            sql.run(SqlOp::Difference, big, &other);
            break;
          }
          case Algorithm::JoinQuery: {
            Dataset other = makeTable(space, n / 2, n / 8 + 16, parts,
                                      256, data_seed + 1);
            sql.run(SqlOp::JoinQuery, big, &other);
            break;
          }
          case Algorithm::Projection:
            sql.run(SqlOp::Projection, big);
            break;
          case Algorithm::Filter:
            sql.run(SqlOp::Filter, big);
            break;
          case Algorithm::OrderBy:
            sql.run(SqlOp::OrderBy, big);
            break;
          case Algorithm::Aggregation:
            sql.run(SqlOp::Aggregation, big);
            break;
          case Algorithm::AggQuery:
            sql.run(SqlOp::AggQuery, big);
            break;
          case Algorithm::SelectQuery:
            sql.run(SqlOp::SelectQuery, big);
            break;
          default:
            BDS_PANIC("not an interactive algorithm");
        }
    } else {
        OfflineWorkloads offline(*engine);
        switch (id.alg) {
          case Algorithm::Sort: {
            Dataset in =
                makeTable(space, n, UINT64_MAX, parts, 192, data_seed);
            offline.runSort(in);
            break;
          }
          case Algorithm::WordCount: {
            Dataset corpus = makeTextCorpus(space, n, n / 16 + 64,
                                            parts, 4, data_seed);
            offline.runWordCount(corpus);
            break;
          }
          case Algorithm::Grep: {
            Dataset corpus = makeTextCorpus(space, n, n / 16 + 64,
                                            parts, 4, data_seed);
            offline.runGrep(corpus);
            break;
          }
          case Algorithm::Bayes: {
            Dataset corpus = makeTextCorpus(space, n, n / 32 + 64,
                                            parts, 4, data_seed);
            offline.runNaiveBayes(corpus, 4, n / 32 + 64);
            break;
          }
          case Algorithm::KMeans: {
            Dataset points = makePoints(space, n, scale_.kmeansClusters,
                                        parts, data_seed);
            offline.runKMeans(points, scale_.kmeansClusters,
                              scale_.kmeansIterations);
            break;
          }
          case Algorithm::PageRank: {
            std::uint64_t vertices = n / 8 + 64;
            Dataset edges =
                makeGraph(space, n, vertices, parts, data_seed);
            offline.runPageRank(edges, vertices,
                                scale_.pagerankIterations);
            break;
          }
          default:
            BDS_PANIC("not an offline algorithm");
        }
    }
}

namespace {

/**
 * Degenerate-data guard over an extracted metric vector: a NaN or
 * infinity anywhere means corrupted counters (or an injected
 * corruption), and must fail the workload rather than poison the
 * z-scores of every other row downstream.
 */
void
validateMetrics(const MetricVector &metrics, const std::string &name)
{
    for (std::size_t i = 0; i < kNumMetrics; ++i)
        if (!std::isfinite(metrics[i]))
            BDS_RAISE(ErrorCode::DegenerateData,
                      "workload " << name << " produced a non-finite "
                      << metricSchema()[i].name << " metric");
}

} // namespace

WorkloadResult
WorkloadRunner::runOnNode(const WorkloadId &id,
                          std::uint64_t data_seed) const
{
    SystemModel sys(cfg_);
    execute(id, sys, data_seed);

    WorkloadResult res;
    res.id = id;
    res.counters = sys.aggregateCounters();
    res.metrics = extractMetrics(res.counters);
    if (FaultInjector::global().shouldCorrupt(id.name()))
        res.metrics[0] = std::numeric_limits<double>::quiet_NaN();
    validateMetrics(res.metrics, id.name());
    return res;
}

SweepReport
guardedSweep(const std::vector<WorkloadId> &ids,
             const RecoveryOptions &rec, unsigned threads,
             const std::function<void(std::size_t,
                                      const AttemptContext &)> &body)
{
    std::vector<RunRecord> records(ids.size());
    parallelFor(ids.size(), threads, [&](std::size_t i) {
        records[i] = guardedRun(
            ids[i].name(), rec,
            [&](const AttemptContext &ctx) { body(i, ctx); });
    });

    SweepReport rep;
    rep.records = std::move(records);
    if (rec.policy == FailPolicy::FailFast) {
        for (const RunRecord &r : rep.records)
            if (!runStatusOk(r.status))
                throw Error(r.code, r.message);
    } else {
        for (RunRecord &r : rep.records)
            if (!runStatusOk(r.status))
                r.status = RunStatus::Quarantined;
    }
    for (std::size_t i = 0; i < rep.records.size(); ++i)
        if (runStatusOk(rep.records[i].status))
            rep.survivors.push_back(i);

    // Failure counters land in the trace only when something went
    // wrong (a zero add emits nothing), keeping clean traces
    // byte-identical. Emitted here, after the parallel loop, in
    // deterministic order.
    std::uint64_t retries = 0, retried_ok = 0, timeouts = 0;
    for (const RunRecord &r : rep.records) {
        retries += r.attempts - 1;
        retried_ok += r.status == RunStatus::RetriedOk ? 1 : 0;
        timeouts += r.code == ErrorCode::Timeout ? 1 : 0;
    }
    counters::add(Counter::FaultRetries, retries);
    counters::add(Counter::FaultRetriedOk, retried_ok);
    counters::add(Counter::FaultTimeout, timeouts);
    counters::add(Counter::FaultQuarantined,
                  rep.records.size() - rep.survivors.size());
    return rep;
}

Matrix
WorkloadRunner::runAll(std::vector<WorkloadResult> *details,
                       SweepTiming *timing,
                       SweepReport *report) const
{
    TraceSpan span("runner.runAll");
    auto start = std::chrono::steady_clock::now();
    auto ids = allWorkloads();

    // Each workload writes its preallocated slot, so the matrix is
    // bitwise identical for every thread count. When the sweep itself
    // is parallel the per-node fan-out stays serial so the machine is
    // never oversubscribed.
    unsigned sweep_threads = parallel_.resolvedFor(ids.size());
    unsigned node_threads = sweep_threads > 1
        ? 1 : parallel_.resolvedFor(nodes_);
    std::vector<WorkloadResult> slots(ids.size());
    SweepReport rep = guardedSweep(
        ids, recovery_, sweep_threads,
        [&](std::size_t i, const AttemptContext &ctx) {
            inform("running workload " + ids[i].name());
            slots[i] = runWithThreads(ids[i], node_threads, ctx);
        });
    Matrix m = survivorMatrix(slots, rep);

    if (timing) {
        timing->perWorkloadSeconds.clear();
        for (std::size_t i : rep.survivors)
            timing->perWorkloadSeconds.push_back(
                slots[i].wallSeconds);
        timing->totalSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start).count();
        timing->threads = sweep_threads;
    }
    if (details)
        for (std::size_t i : rep.survivors)
            details->push_back(std::move(slots[i]));
    if (report)
        *report = std::move(rep);
    return m;
}

} // namespace bds
