#include "sample/characterizer.h"

#include <chrono>

#include "common/log.h"
#include "fault/recover.h"
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
            total.stats.totalOps += per.stats.totalOps;
            total.stats.detailOps += per.stats.detailOps;
            total.stats.warmOps += per.stats.warmOps;
            total.stats.skippedOps += per.stats.skippedOps;
            total.stats.ckptRestores += per.stats.ckptRestores;
            total.stats.ckptWrites += per.stats.ckptWrites;
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

    // One pool task per workload into a preallocated slot; each task
    // derives every seed from the workload identity, so the matrix is
    // bitwise identical for every thread count. guardedRun isolates
    // failures per slot; policy is settled after the loop, in
    // allWorkloads() order, exactly as in WorkloadRunner::runAll.
    const RecoveryOptions &rec = runner_.recovery();
    unsigned threads = runner_.parallel().resolvedFor(ids.size());
    std::vector<SampledWorkloadResult> slots(ids.size());
    std::vector<RunRecord> records(ids.size());
    parallelFor(ids.size(), threads, [&](std::size_t i) {
        inform("sampling workload " + ids[i].name());
        records[i] = guardedRun(
            ids[i].name(), rec, [&](const AttemptContext &) {
                slots[i] = run(ids[i]);
            });
    });

    SweepReport rep;
    rep.policy = rec.policy;
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

    Matrix m(rep.survivors.size(), kNumMetrics);
    for (std::size_t row = 0; row < rep.survivors.size(); ++row)
        for (std::size_t j = 0; j < kNumMetrics; ++j)
            m(row, j) = slots[rep.survivors[row]].metrics[j];

    if (details)
        for (std::size_t i : rep.survivors)
            details->push_back(std::move(slots[i]));
    if (report)
        *report = std::move(rep);
    return m;
}

} // namespace bds
