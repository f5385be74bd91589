#include "core/pipeline.h"

#include "common/log.h"
#include "fault/error.h"
#include "obs/trace.h"
#include "uarch/machine.h"

namespace bds {

namespace {

/**
 * Resolve which schema metrics the matrix columns are, projecting a
 * full Table II matrix onto a declared subset when needed. Leaves
 * res.metrics empty for non-schema (external) columns.
 */
void
resolveMetricSet(PipelineResult &res, const PipelineOptions &opts)
{
    const std::size_t cols = res.rawMetrics.cols();
    if (opts.metrics.size() == cols) {
        res.metrics = opts.metrics;
    } else if (!opts.metrics.isFullTableII()) {
        if (cols == kNumMetrics) {
            // A full Table II matrix analyzed on a declared subset:
            // select the subset's columns before normalization.
            inform("pipeline: projecting " + std::to_string(cols)
                   + "-column Table II matrix onto "
                   + std::to_string(opts.metrics.size())
                   + " declared metrics");
            res.rawMetrics = opts.metrics.selectColumns(res.rawMetrics);
            res.metrics = opts.metrics;
        } else {
            BDS_FATAL("pipeline metric set declares "
                      << opts.metrics.size() << " metrics but the "
                      << "matrix has " << cols
                      << " columns (and is not a full Table II "
                      << "matrix to project from)");
        }
    } else {
        // Default full set with a foreign column count: external
        // data whose columns are not schema metrics.
        res.metrics = MetricSet::none();
    }

    if (!res.metrics.empty()) {
        res.metricLabels = res.metrics.names();
    } else if (!opts.columnLabels.empty()) {
        if (opts.columnLabels.size() != res.rawMetrics.cols())
            BDS_FATAL("pipeline got " << opts.columnLabels.size()
                      << " column labels for "
                      << res.rawMetrics.cols() << " columns");
        res.metricLabels = opts.columnLabels;
    }
}

} // namespace

PipelineResult
runPipeline(const Matrix &metrics, const std::vector<std::string> &names,
            const PipelineOptions &opts)
{
    if (names.size() != metrics.rows())
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "pipeline needs one name per row: " << names.size()
                      << " names, " << metrics.rows() << " rows");
    if (metrics.rows() < 3)
        BDS_RAISE(ErrorCode::DegenerateData,
                  "pipeline needs at least three workloads, got "
                      << metrics.rows());

    TraceSpan span("pipeline.run");
    PipelineResult res;
    res.names = names;
    res.rawMetrics = metrics;
    resolveMetricSet(res, opts);
    {
        TraceSpan stage("pipeline.zscore");
        res.z = zscore(res.rawMetrics);
        if (!res.z.constantColumns.empty())
            warn("pipeline: "
                 + std::to_string(res.z.constantColumns.size())
                 + " zero-variance metric column(s) mapped to zero");
    }
    {
        TraceSpan stage("pipeline.pca");
        res.pca = pca(res.z.normalized, opts.pca);
        if (opts.pca.forcedComponents > 0
            && res.pca.numComponents < opts.pca.forcedComponents)
            warn("pipeline: retained "
                 + std::to_string(res.pca.numComponents)
                 + " principal components of the "
                 + std::to_string(opts.pca.forcedComponents)
                 + " requested (rank-limited input)");
    }
    {
        TraceSpan stage("pipeline.hcluster");
        res.dendrogram =
            hierarchicalCluster(res.pca.scores, opts.linkage);
    }
    {
        TraceSpan stage("pipeline.bic_sweep");
        std::size_t k_max = std::min(opts.kMax, metrics.rows() - 1);
        res.bic = sweepBic(res.pca.scores, opts.kMin, k_max, opts.seed,
                           opts.kmeans, opts.parallel);
    }
    if (opts.useFirstLocalBicMax)
        res.bic.bestIndex = res.bic.firstLocalMaxIndex();
    return res;
}

PipelineOptions
pipelineOptionsFor(const RunConfig &cfg)
{
    PipelineOptions opts;
    opts.parallel = cfg.parallel;
    opts.sampling = cfg.sampling;
    opts.machine = resolveMachineSpec(cfg.machineSpec);
    if (!cfg.metricNames.empty())
        opts.metrics = MetricSet::fromNames(cfg.metricNames);
    return opts;
}

} // namespace bds
