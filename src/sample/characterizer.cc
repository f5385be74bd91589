#include "sample/characterizer.h"

#include <chrono>

#include "common/log.h"
#include "obs/trace.h"
#include "sample/capture.h"

namespace bds {

SampledCharacterizer::SampledCharacterizer(const WorkloadRunner &runner,
                                           SamplingOptions opts)
    : runner_(runner), opts_(opts)
{
    if (opts_.intervalUops == 0)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "sampling interval must be at least one uop");
    if (opts_.bbvDims == 0)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "sampling BBV needs at least one bucket");
}

SampledWorkloadResult
SampledCharacterizer::runOnNode(const WorkloadId &id,
                                unsigned node) const
{
    // The capture/replay seam (sample/capture.h): stages 1-3 are
    // machine-independent, stages 4-5 run on the runner's machine.
    // Replaying a fresh capture on the capturing machine is the
    // monolithic pipeline this method used to inline.
    const WorkloadCapture cap =
        captureWorkload(runner_, opts_, id, node, &ckpt_);
    return replayCapture(cap, runner_.config(), opts_, &ckpt_);
}

SampledWorkloadResult
SampledCharacterizer::run(const WorkloadId &id) const
{
    TraceSpan span("workload.sample", "workload", id.name());
    auto start = std::chrono::steady_clock::now();
    FaultInjector::global().maybeThrow(id.name());
    FaultInjector::global().maybeStall(id.name());
    unsigned nodes = runner_.clusterNodes();

    SampledWorkloadResult total = runOnNode(id, 0);
    if (nodes > 1) {
        // Fixed node order, as in the full path's mean reduction.
        MetricVector mean = total.metrics;
        for (unsigned node = 1; node < nodes; ++node) {
            SampledWorkloadResult per = runOnNode(id, node);
            total.counters += per.counters;
            total.stats += per.stats;
            total.numIntervals += per.numIntervals;
            total.k += per.k;
            total.numReps += per.numReps;
            for (std::size_t i = 0; i < kNumMetrics; ++i)
                mean[i] += per.metrics[i];
        }
        for (double &v : mean)
            v /= static_cast<double>(nodes);
        total.metrics = mean;
    }
    total.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - start).count();
    return total;
}

Matrix
SampledCharacterizer::runAll(
    std::vector<SampledWorkloadResult> *details,
    SweepReport *report) const
{
    TraceSpan span("sampler.runAll");
    auto ids = allWorkloads();
    std::vector<SampledWorkloadResult> slots(ids.size());
    SweepReport rep = guardedSweep(
        ids, runner_.recovery(),
        runner_.parallel().resolvedFor(ids.size()),
        [&](std::size_t i, const AttemptContext &) {
            inform("sampling workload " + ids[i].name());
            slots[i] = run(ids[i]);
        });
    Matrix m = survivorMatrix(slots, rep);

    if (details)
        for (std::size_t i : rep.survivors)
            details->push_back(std::move(slots[i]));
    if (report)
        *report = std::move(rep);
    return m;
}

} // namespace bds
