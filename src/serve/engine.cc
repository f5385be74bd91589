#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <ctime>
#include <sstream>

#include "ckpt/context.h"
#include "common/table.h"
#include "core/csvio.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "metrics/schema.h"
#include "metrics/set.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "sample/characterizer.h"
#include "serve/confighash.h"
#include "workloads/registry.h"

namespace bds {

/**
 * Everything a projected hit needs from one stored cell, parsed and
 * formatted once: the table readMetricsCsv() reads from the entry's
 * CSV, with every cell already rendered as writeMetricsCsv() renders
 * it. Immutable once built; requests share it through a shared_ptr.
 */
struct ProjectionBasis
{
    /** Marks a workload or metric the entry has no row/column for. */
    static constexpr std::size_t kAbsent = ~std::size_t(0);

    /** The entry bytes this basis was built from. */
    std::string csv;

    /** Row labels, file order. */
    std::vector<std::string> names;

    /** First row labelled allWorkloads()[i], or kAbsent. */
    std::vector<std::size_t> rowOfWorkload;

    /** Header metric columns, file order. */
    std::vector<std::string> columns;

    /** Column of schema metric m, or kAbsent. */
    std::vector<std::size_t> columnOfMetric;

    /** fmtDouble(value, 6) of every cell, row-major. */
    std::vector<std::string> cells;
};

namespace {

/**
 * Parse an entry's CSV into its projection basis. Raises exactly
 * what the batch path raises on the same bytes: readMetricsCsv()'s
 * parse errors, then metricColumnOrder()'s duplicated column.
 */
std::shared_ptr<const ProjectionBasis>
buildBasis(const std::string &csv)
{
    std::istringstream in(csv);
    MetricTable table = readMetricsCsv(in);
    metricColumnOrder(table.columns, MetricSet::none());

    auto basis = std::make_shared<ProjectionBasis>();
    basis->csv = csv;
    basis->names = std::move(table.names);
    basis->columns = std::move(table.columns);
    for (const WorkloadId &w : allWorkloads()) {
        const auto it = std::find(basis->names.begin(),
                                  basis->names.end(), w.name());
        basis->rowOfWorkload.push_back(
            it == basis->names.end()
                ? ProjectionBasis::kAbsent
                : static_cast<std::size_t>(it - basis->names.begin()));
    }
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
        const auto it = std::find(basis->columns.begin(),
                                  basis->columns.end(), metricName(m));
        basis->columnOfMetric.push_back(
            it == basis->columns.end()
                ? ProjectionBasis::kAbsent
                : static_cast<std::size_t>(it - basis->columns.begin()));
    }
    basis->cells.reserve(table.values.rows() * table.values.cols());
    for (std::size_t r = 0; r < table.values.rows(); ++r)
        for (std::size_t c = 0; c < table.values.cols(); ++c)
            basis->cells.push_back(fmtDouble(table.values(r, c), 6));
    return basis;
}

/** The CSV header label of every schema metric. */
const std::vector<std::string> &
metricLabels()
{
    static const std::vector<std::string> labels = [] {
        std::vector<std::string> out;
        for (std::size_t m = 0; m < kNumMetrics; ++m)
            out.push_back(csvEscape(metricName(m)));
        return out;
    }();
    return labels;
}

/** Current wall-clock time as ISO-8601 UTC. */
std::string
isoNow()
{
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

} // namespace

ComputedResult
characterizeCell(const RunConfig &cfg, SweepReport *report)
{
    // Everything — machine geometry included — flows from cfg;
    // nothing is hard-coded here.
    WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);

    const auto t0 = std::chrono::steady_clock::now();
    Matrix metrics;
    SweepReport local;
    SweepReport &rep = report ? *report : local;
    if (cfg.sampling.enabled) {
        SampledCharacterizer sampler(runner, cfg.sampling);
        // The checkpoint cache rides along: a recomputed cell (store
        // bypassed, or a cell retired by a schema bump) still reuses
        // the representative-entry snapshots keyed to its config.
        sampler.setCheckpoints(checkpointContextFor(cfg));
        metrics = sampler.runAll(nullptr, &rep);
    } else {
        metrics = runner.runAll(nullptr, nullptr, &rep);
    }
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    ComputedResult out;
    out.cacheable = rep.allOk();
    if (!out.cacheable)
        out.quarantined = rep.quarantinedNames();
    out.entry = makeResultEntry(cfg, rep.survivorNames(), metrics, seconds);
    return out;
}

ResultEntry
makeResultEntry(const RunConfig &cfg, const std::vector<std::string> &names,
                const Matrix &metrics, double seconds)
{
    ResultEntry entry;
    entry.hashHex = runConfigHashHex(cfg);
    entry.canonicalConfig = canonicalRunConfig(cfg);
    entry.names = names;

    PipelineResult res;
    res.names = names;
    res.rawMetrics = metrics;
    std::ostringstream csv;
    writeMetricsCsv(csv, res);
    entry.csv = csv.str();

    std::ostringstream mf;
    mf << "{\"tool\": \"" << jsonEscape(cfg.tool)
       << "\", \"bds_version\": \"" << jsonEscape(bdsVersion())
       << "\", \"created\": \"" << isoNow() << "\", \"hash\": \""
       << entry.hashHex << "\", \"scale\": \"" << cfg.scaleName
       << "\", \"seed\": " << cfg.seed << ", \"machine\": \""
       << jsonEscape(cfg.machineSpec) << "\", \"sampled\": "
       << (cfg.sampling.enabled ? "true" : "false")
       << ", \"workloads\": " << names.size()
       << ", \"compute_seconds\": " << jsonNumber(seconds) << "}\n";
    entry.manifestJson = mf.str();
    return entry;
}

/**
 * Counting semaphore bounding concurrent sweep computations, with a
 * bounded admission queue in front. Cache hits never take a slot, so
 * a slow cold cell cannot starve warm traffic; a compute arriving
 * with maxQueue others already waiting is shed with a typed
 * Overloaded error instead of queueing unboundedly.
 */
struct ServeEngine::Gate
{
    Gate(unsigned slots, unsigned maxQueue)
        : free(slots), maxQueue(maxQueue)
    {
    }

    std::mutex mutex;
    std::condition_variable cv;
    unsigned free;
    unsigned waiting = 0;
    const unsigned maxQueue;

    struct Slot
    {
        explicit Slot(Gate &g) : gate(g)
        {
            std::unique_lock<std::mutex> lock(gate.mutex);
            if (gate.free == 0) {
                // Shed before blocking: the admission decision is
                // made while the queue state is visible, so the
                // bound is exact, not best-effort.
                if (gate.waiting >= gate.maxQueue)
                    BDS_RAISE(ErrorCode::Overloaded,
                              "admission queue full ("
                                  << gate.waiting
                                  << " computes already waiting, "
                                     "max_queue="
                                  << gate.maxQueue << ")");
                ++gate.waiting;
                gate.cv.wait(lock, [&] { return gate.free > 0; });
                --gate.waiting;
            }
            --gate.free;
        }
        ~Slot()
        {
            {
                std::lock_guard<std::mutex> lock(gate.mutex);
                ++gate.free;
            }
            gate.cv.notify_one();
        }
        Gate &gate;
    };
};

ServeEngine::ServeEngine(RunConfig base, Session *session)
    : base_(std::move(base)),
      store_(base_.serve.storeDir, base_.serve.maxStoreBytes),
      session_(session),
      maxInFlight_(base_.serve.maxInFlight
                       ? base_.serve.maxInFlight
                       : ParallelOptions{0}.resolved()),
      gate_(std::make_shared<Gate>(maxInFlight_, base_.serve.maxQueue))
{
}

RunConfig
ServeEngine::requestConfig(const RequestRecord &req) const
{
    RunConfig cfg = base_;
    cfg.scaleName = serveScaleName(req.scale);
    cfg.seed = req.seed;
    cfg.machineSpec = serveMachineName(req.machine);
    cfg.sampling.enabled = (req.flags & kServeFlagSampled) != 0;
    // The metric/workload masks are response projections, not part
    // of the cell (see serve/confighash.h).
    cfg.metricNames.clear();
    return cfg;
}

ComputedResult
ServeEngine::computeCell(const RunConfig &cfg)
{
    TraceSpan span("serve.compute");
    SweepReport report;
    ComputedResult out = characterizeCell(cfg, &report);
    if (!out.cacheable) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (session_)
            session_->recordSweep(report);
    }
    return out;
}

std::string
ServeEngine::cellHash(const RequestRecord &req) const
{
    const auto key =
        std::make_tuple(req.scale, req.seed, req.machine,
                        (req.flags & kServeFlagSampled) != 0);
    std::string hash;
    if (!hashes_.find(key, &hash)) {
        hash = runConfigHashHex(requestConfig(req));
        hashes_.put(key, hash);
    }
    return hash;
}

std::string
ServeEngine::projectPayload(const ResultEntry &entry,
                            const RequestRecord &req) const
{
    const bool all_rows = req.workloadMask == 0xffffffffu;
    if (all_rows && req.metricMask == 0)
        return entry.csv; // the byte-identical full-width fast path

    // A basis answers only for the exact bytes it was built from, so
    // a rewritten entry under the same hash is never sliced stale.
    std::shared_ptr<const ProjectionBasis> basis;
    if (!bases_.find(entry.hashHex, &basis) || basis->csv != entry.csv) {
        basis = buildBasis(entry.csv);
        bases_.put(entry.hashHex, basis);
    }

    // Columns in schema order: the full Table II for mask 0.
    std::vector<std::size_t> cols;
    bool missing = false;
    for (std::size_t m = 0; m < kNumMetrics; ++m)
        if (req.metricMask == 0 || ((req.metricMask >> m) & 1u)) {
            cols.push_back(m);
            missing |= basis->columnOfMetric[m] == ProjectionBasis::kAbsent;
        }
    if (missing) // raises the batch path's own diagnostic
        metricColumnOrder(
            basis->columns,
            req.metricMask ? MetricSet::fromNames(
                                 metricNamesFromMask(req.metricMask))
                           : MetricSet::tableII());

    // Rows in allWorkloads() order; requested workloads missing from
    // the entry (quarantined) are simply absent.
    std::vector<std::size_t> rows;
    if (all_rows) {
        for (std::size_t r = 0; r < basis->names.size(); ++r)
            rows.push_back(r);
    } else {
        for (std::size_t w = 0; w < basis->rowOfWorkload.size(); ++w)
            if (((req.workloadMask >> w) & 1u)
                && basis->rowOfWorkload[w] != ProjectionBasis::kAbsent)
                rows.push_back(basis->rowOfWorkload[w]);
    }

    // The bytes writeMetricsCsv() emits for the selection.
    const std::vector<std::string> &labels = metricLabels();
    const std::size_t width = basis->columns.size();
    std::string out;
    out.reserve((rows.size() + 1) * (16 + 12 * cols.size()));
    out += "workload";
    for (std::size_t m : cols) {
        out += ',';
        out += labels[m];
    }
    out += '\n';
    for (std::size_t r : rows) {
        out += basis->names[r];
        for (std::size_t m : cols) {
            out += ',';
            out += basis->cells[r * width + basis->columnOfMetric[m]];
        }
        out += '\n';
    }
    return out;
}

ServeResponse
ServeEngine::handle(const RequestRecord &req)
{
    Tracer::global().counter("serve.requests", 1);
    TraceSpan span("serve.request");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requests;
    }

    ServeResponse resp;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        if (req.op != static_cast<std::uint32_t>(ServeOp::Characterize))
            BDS_RAISE(ErrorCode::InvalidConfig,
                      "unsupported request op " << req.op);
        resp.hashHex = cellHash(req);

        ComputedResult result;
        const bool bypass = base_.serve.bypassStore
            || (req.flags & kServeFlagBypass);
        if (bypass) {
            Tracer::global().counter("serve.bypass", 1);
            Gate::Slot slot(*gate_);
            result = computeCell(requestConfig(req));
        } else {
            result = store_.getOrCompute(
                resp.hashHex,
                [&]() -> ComputedResult {
                    Gate::Slot slot(*gate_);
                    return computeCell(requestConfig(req));
                },
                &resp.hit);
        }
        resp.quarantined = result.quarantined;
        resp.payload = projectPayload(result.entry, req);
        resp.ok = true;
    } catch (const Error &e) {
        resp.code = e.code();
        resp.message = e.what();
        if (e.code() == ErrorCode::Overloaded) {
            Tracer::global().counter("serve.shed", 1);
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.shed;
        }
    } catch (const FatalError &e) {
        resp.code = ErrorCode::InvalidConfig;
        resp.message = e.what();
    } catch (const std::exception &e) {
        resp.code = ErrorCode::Internal;
        resp.message = e.what();
    }
    resp.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

    Tracer::global().counter(resp.ok ? (resp.hit ? "serve.hits"
                                                 : "serve.misses")
                                     : "serve.errors",
                             1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!resp.ok)
            ++stats_.errors;
        else if (resp.hit)
            ++stats_.hits;
        else
            ++stats_.misses;
        if (resp.ok
            && (base_.serve.bypassStore
                || (req.flags & kServeFlagBypass)))
            ++stats_.bypassed;
    }
    return resp;
}

ServeStats
ServeEngine::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServeStats out = stats_;
    out.ckpt = ckptStats();
    out.store = storeStats();
    return out;
}

} // namespace bds
