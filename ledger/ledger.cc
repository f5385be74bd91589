/**
 * @file
 * The wall-clock ledger: one benchmark for the full, sampled+
 * checkpoint and served routes, with a per-layer breakdown.
 *
 * Workloads (all at quick scale, workload seed = --seed):
 *
 *   full          WorkloadRunner::runAll over the 32 workloads, then
 *                 runPipeline and evaluatePaperFindings, pass after
 *                 pass.
 *   sampled-ckpt  SampledCharacterizer::runAll with a CheckpointContext
 *                 over a directory a cold pass filled in set-up: warm
 *                 passes restore every representative.
 *   serve-hot     a bds_serve daemon on a Unix socket, four cells
 *                 computed in set-up, then a closed loop of four
 *                 connections over a seeded Zipf/projection mix.
 *
 * --trace 0 measures the end-to-end metrics. --trace 1 is a separate
 * run that rebuilds each route from per-layer public calls with spans
 * around them (ledger/spans.h) and reports the per-layer metrics,
 * the tracing overhead and the share of wall time no span explains.
 * Every pass and every response is checked; the last stdout line is
 * one JSON object {correct, attempted, failed, metrics}.
 *
 * Usage (ledger/run.py builds and calls it):
 *
 *   ledger --workload W --seed N --seconds S --trace 0|1
 *          --serve-bin PATH --digests PATH [--run-dir DIR]
 *          [--commit ID] [--src-digest HEX]
 *   ledger --fixture full|sampled --seed N --out PATH
 */

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bds/bds.h"
#include "bench_common.h"
#include "obs/json.h"
#include "loadgen.h"
#include "spans.h"

extern char **environ;

namespace {

using namespace bds;
using ledger::Scope;
using ledger::Span;
using ledger::SpanLog;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Per-layer metrics and their units, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"stack.execute_s", "s"},
    {"stack.uops", "count"},
    {"sample.record_s", "s"},
    {"sample.profile_s", "s"},
    {"sample.pick_s", "s"},
    {"sample.trace_mb", "MiB"},
    {"sample.replay_s", "s"},
    {"sample.detail_uops", "count"},
    {"sample.warm_uops", "count"},
    {"sample.skipped_uops", "count"},
    {"sample.reps", "count"},
    {"sample.cold_replay_s", "s"},
    {"sample.cold_warm_uops", "count"},
    {"uarch.detail_s", "s"},
    {"uarch.detail_mops_per_s", "Mops/s"},
    {"uarch.warm_s", "s"},
    {"uarch.warm_mops_per_s", "Mops/s"},
    {"ckpt.encode_ms", "ms"},
    {"ckpt.decode_ms", "ms"},
    {"ckpt.entry_mb", "MiB"},
    {"ckpt.load_ms", "ms"},
    {"ckpt.store_ms", "ms"},
    {"ckpt.hits", "count"},
    {"ckpt.misses", "count"},
    {"ckpt.writes", "count"},
    {"ckpt.fallbacks", "count"},
    {"ckpt.hit_ratio", "ratio"},
    {"store.read_us", "us"},
    {"store.publishes", "count"},
    {"store.evicted", "count"},
    {"store.lease_acquires", "count"},
    {"store.lease_waits", "count"},
    {"serve.hash_us", "us"},
    {"serve.hit_full_us", "us"},
    {"serve.hit_projected_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.hits", "count"},
    {"serve.misses", "count"},
    {"serve.errors", "count"},
    {"serve.shed", "count"},
    {"serve.hit_ratio", "ratio"},
    {"core.pipeline_ms", "ms"},
    {"core.findings_ms", "ms"},
    {"trace.overhead_suite_s", "s"},
    {"trace.overhead_p50_us", "us"},
    {"trace.unattributed_share", "ratio"},
};

/** Command-line options. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string serveBin;
    std::string digests;
    std::string runDir = ".bench_run";
    std::string commit = "unknown";
    std::string srcDigest = "unknown";
    std::string self; ///< argv[0], re-run for fixtures
    unsigned threads = 4;
    unsigned connections = 4;
};

/** What one run measured and checked. */
struct Outcome
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::map<std::string, double> counts; ///< sample sizes, provenance
    std::map<std::string, std::vector<double>> samples; ///< raw timings

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (problems.size() < 20)
                problems.push_back(what);
            std::cerr << "ledger: CHECK FAILED: " << what << "\n";
        }
    }

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (auto &m : metrics)
            if (m.first == name) {
                m.second = {value, unit};
                return;
            }
        metrics.push_back({name, {value, unit}});
    }
};

// --- pinned outputs ---------------------------------------------------

/**
 * Digests pinned in ledger/digests.txt:
 *   full <seed> <fnv1a64 hex of the metric CSV>
 *   sampled <seed> <hex>
 *   accuracy <seed> <mean_rel_err> <findings_preserved>
 *   accuracy-served <seed> <same, from the served six-digit CSVs>
 */
struct Pins
{
    std::map<std::pair<std::string, std::uint64_t>, std::string> csv;
    std::map<std::pair<std::string, std::uint64_t>,
             std::pair<double, int>>
        accuracy;
};

Pins
loadPins(const std::string &path)
{
    Pins pins;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read digests file '" + path
                                 + "'");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string kind;
        std::uint64_t seed = 0;
        ss >> kind >> seed;
        if (kind.rfind("accuracy", 0) == 0) {
            double err = 0.0;
            int preserved = 0;
            ss >> err >> preserved;
            pins.accuracy[{kind, seed}] = {err, preserved};
        } else {
            std::string hex;
            ss >> hex;
            pins.csv[{kind, seed}] = hex;
        }
    }
    return pins;
}

std::string
digest(const std::string &bytes)
{
    return toHex64(fnv1a64(bytes));
}

/** Check `csv` against the pinned digest of (route, seed), if any. */
void
checkPinned(Outcome &out, const Pins &pins, const std::string &route,
            std::uint64_t seed, const std::string &csv)
{
    auto it = pins.csv.find({route, seed});
    if (it != pins.csv.end())
        out.check(digest(csv) == it->second,
                  route + " CSV of seed " + std::to_string(seed)
                      + " has digest " + digest(csv) + ", pinned "
                      + it->second);
}

// --- library helpers --------------------------------------------------

RunConfig
baseConfig(const Options &o, std::uint64_t seed)
{
    RunConfig cfg;
    cfg.tool = "ledger";
    cfg.scaleName = "quick";
    cfg.seed = seed;
    cfg.parallel.threads = o.threads;
    cfg.manifest = false;
    cfg.trace = false;
    return cfg;
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const WorkloadId &id : allWorkloads())
        names.push_back(id.name());
    return names;
}

std::string
csvOf(const std::vector<std::string> &names, const Matrix &m)
{
    PipelineResult res;
    res.names = names;
    res.rawMetrics = m;
    std::ostringstream os;
    writeMetricsCsv(os, res);
    return os.str();
}

Matrix
matrixOfCsv(const std::string &csv)
{
    std::istringstream in(csv);
    return alignMetricTable(readMetricsCsv(in), MetricSet::tableII());
}

MetricVector
rowOf(const Matrix &m, std::size_t r)
{
    MetricVector v{};
    for (std::size_t j = 0; j < kNumMetrics; ++j)
        v[j] = m(r, j);
    return v;
}

/** The analysis every batch pass ends with. */
std::size_t
analyze(const Matrix &m, const std::vector<std::string> &names,
        const PipelineOptions &popts)
{
    return evaluatePaperFindings(runPipeline(m, names, popts)).size();
}

/** mean_rel_err and findings_preserved of a sampled matrix. */
void
reportAccuracy(Outcome &out, const Pins &pins, const std::string &kind,
               std::uint64_t seed, const Matrix &full, const Matrix &sampled,
               const std::vector<std::string> &names,
               const PipelineOptions &popts)
{
    double err = 0.0;
    for (std::size_t i = 0; i < full.rows(); ++i)
        err += compareMetrics(rowOf(full, i), rowOf(sampled, i))
                   .meanError;
    err /= static_cast<double>(full.rows());
    const auto ff = evaluatePaperFindings(runPipeline(full, names, popts));
    const auto sf =
        evaluatePaperFindings(runPipeline(sampled, names, popts));
    int preserved = 0;
    for (std::size_t i = 0; i < ff.size() && i < sf.size(); ++i)
        preserved += ff[i].pass == sf[i].pass ? 1 : 0;
    out.set("mean_rel_err", err, "ratio");
    out.set("findings_preserved", preserved, "count");
    out.counts["findings_total"] = static_cast<double>(ff.size());
    auto it = pins.accuracy.find({kind, seed});
    if (it != pins.accuracy.end()) {
        out.check(std::fabs(err - it->second.first) < 5e-7,
                  "mean_rel_err " + std::to_string(err) + ", pinned "
                      + std::to_string(it->second.first));
        out.check(preserved == it->second.second,
                  "findings_preserved " + std::to_string(preserved)
                      + ", pinned "
                      + std::to_string(it->second.second));
    }
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** The BDS_*-free environment children run under. */
std::vector<std::string>
cleanEnvironment()
{
    std::vector<std::string> env;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "BDS_", 4) != 0)
            env.emplace_back(*e);
    return env;
}

/** posix_spawn `args` with the clean environment; returns the pid. */
pid_t
spawn(const std::vector<std::string> &args)
{
    std::vector<std::string> env = cleanEnvironment();
    std::vector<char *> argv, envp;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    for (const std::string &e : env)
        envp.push_back(const_cast<char *>(e.c_str()));
    envp.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, args[0].c_str(), nullptr, nullptr,
                               argv.data(), envp.data());
    if (rc != 0)
        throw std::runtime_error("cannot start '" + args[0]
                                 + "': " + std::strerror(rc));
    return pid;
}

/** A characterization made outside the measured process. */
struct Fixture
{
    std::string csv; ///< the metric CSV, as the batch tools write it
    Matrix exact;    ///< the same matrix at full precision
};

/**
 * Characterize seed `seed` on `route` (full | sampled, no checkpoints)
 * in a child process, so the fixture never raises this process's peak
 * RSS.
 */
Fixture
fixture(const Options &o, const std::string &route, std::uint64_t seed)
{
    const std::string path =
        o.runDir + "/fixture-" + route + "-" + std::to_string(seed)
        + ".csv";
    const pid_t pid = spawn({o.self, "--fixture", route, "--seed",
                             std::to_string(seed), "--out", path});
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("fixture " + route + " failed");
    Fixture f;
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    f.csv = ss.str();
    f.exact = Matrix(allWorkloads().size(), kNumMetrics);
    std::ifstream raw(path + ".raw");
    for (std::size_t r = 0; r < f.exact.rows(); ++r) {
        std::vector<double> row(kNumMetrics);
        for (double &v : row)
            if (!(raw >> v))
                throw std::runtime_error("fixture " + route
                                         + " values truncated");
        f.exact.setRow(r, row);
    }
    return f;
}

int
runFixture(const Options &o, const std::string &route,
           const std::string &path)
{
    RunConfig cfg = baseConfig(o, o.seed);
    WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);
    SweepReport rep;
    Matrix m;
    if (route == "sampled") {
        SamplingOptions s = cfg.sampling;
        s.enabled = true;
        SampledCharacterizer sampler(runner, s);
        m = sampler.runAll(nullptr, &rep);
    } else if (route == "full") {
        m = runner.runAll(nullptr, nullptr, &rep);
    } else {
        std::cerr << "ledger: unknown fixture route '" << route << "'\n";
        return 2;
    }
    if (!rep.allOk())
        return 4;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << csvOf(suiteNames(), m);
    // The CSV rounds to six digits; accuracy needs the exact values.
    std::ofstream raw(path + ".raw", std::ios::trunc);
    raw << std::setprecision(17);
    for (double v : m.data())
        raw << v << "\n";
    return out && raw ? 0 : 5;
}

// --- span aggregation -------------------------------------------------

/** Median over pass ids of the per-pass self-time sum of `name`. */
double
medianPassSum(const std::vector<Span> &spans,
              const std::vector<double> &self, const std::string &name,
              const std::vector<std::uint64_t> &passes)
{
    std::map<std::uint64_t, double> sum;
    for (std::uint64_t p : passes)
        sum[p] = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == name && sum.count(spans[i].id))
            sum[spans[i].id] += self[i];
    std::vector<double> v;
    for (const auto &kv : sum)
        v.push_back(kv.second);
    return v.empty() ? 0.0 : ledger::median(v);
}

/** Durations of every span named `name`. */
std::vector<double>
durations(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> v;
    for (const Span &s : spans)
        if (s.name == name)
            v.push_back(s.end - s.start);
    return v;
}

double
medianOr0(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : ledger::median(v);
}

/** Median unattributed share over the given root spans. */
double
unattributed(const std::vector<Span> &spans,
             const std::vector<std::int64_t> &roots)
{
    std::vector<double> v;
    for (std::int64_t r : roots)
        v.push_back(ledger::unattributedShare(
            spans, static_cast<std::size_t>(r)));
    return medianOr0(v);
}

/** The end-to-end timings of a batch route (full, sampled-ckpt). */
void
reportBatch(Outcome &out, const std::vector<double> &setups,
            const std::vector<double> &passes,
            const std::vector<double> &lat)
{
    double total = 0.0;
    for (double p : passes)
        total += p;
    double q = 0.0;
    out.set("setup_s", ledger::median(setups), "s");
    out.set("suite_s", ledger::median(passes), "s");
    out.set("req_per_s", static_cast<double>(lat.size()) / total,
            "req/s");
    out.set("req_p50_us", ledger::median(lat) * 1e6, "us");
    out.set("req_p99_us", ledger::p99OrTail(lat, &q) * 1e6, "us");
    out.set("peak_rss_mb", peakRssMb(), "MiB");
    out.counts["req_tail_quantile"] = q;
    out.samples["setup_s"] = setups;
    out.samples["pass_s"] = passes;
    out.samples["workload_s"] = lat;
}

/** An execution target that counts and drops every op. */
class DropTarget : public ExecTarget
{
  public:
    explicit DropTarget(unsigned cores) : cores_(cores) {}
    void consume(unsigned, const MicroOp &) override { ++ops; }
    unsigned numCores() const override { return cores_; }
    void dmaFill(std::uint64_t, std::uint64_t) override {}
    std::uint64_t ops = 0;

  private:
    unsigned cores_;
};

/** Run `fn` on each of the 32 workloads, recording failures. */
void
forEachWorkload(Outcome &out, unsigned threads,
                const std::function<void(std::size_t,
                                         const WorkloadId &)> &fn)
{
    const std::vector<WorkloadId> ids = allWorkloads();
    std::mutex mutex;
    parallelFor(ids.size(), threads, [&](std::size_t i) {
        try {
            fn(i, ids[i]);
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mutex);
            out.check(false, ids[i].name() + ": " + e.what());
        }
    });
}

// --- full -------------------------------------------------------------

void
runFull(const Options &o, const Pins &pins, Outcome &out, SpanLog &log)
{
    const RunConfig cfg = baseConfig(o, o.seed);
    const PipelineOptions popts = pipelineOptionsFor(cfg);
    const std::vector<std::string> names = suiteNames();

    // Fixture, outside all timing: the sampled matrix of this seed.
    Fixture sampled;
    if (!o.trace) {
        sampled = fixture(o, "sampled", o.seed);
        checkPinned(out, pins, "sampled", o.seed, sampled.csv);
    }

    // Set-up: construct the runner; its first pass (thread start-up,
    // page faults, allocator growth) is set-up work too.
    std::vector<double> setups;
    std::optional<WorkloadRunner> runner;
    std::string ref_csv;
    for (int k = 0; k < (o.trace ? 1 : 3); ++k) {
        const auto t0 = Clock::now();
        runner.emplace(WorkloadRunner::fromRunConfig(cfg));
        SweepReport rep;
        Matrix m = runner->runAll(nullptr, nullptr, &rep);
        analyze(m, names, popts);
        setups.push_back(since(t0));
        out.check(rep.allOk(), "set-up sweep quarantined a workload");
        const std::string csv = csvOf(names, m);
        if (k == 0)
            ref_csv = csv;
        else
            out.check(csv == ref_csv, "set-up sweeps differ");
    }
    checkPinned(out, pins, "full", o.seed, ref_csv);

    // Untraced passes: the end-to-end measurement, or the baseline
    // the traced passes are compared with.
    const auto start = Clock::now();
    const double budget = o.trace ? 0.4 * o.seconds : o.seconds;
    std::vector<double> passes, lat;
    Matrix last;
    while (passes.size() < (o.trace ? 2u : 3u) || since(start) < budget) {
        SweepTiming timing;
        SweepReport rep;
        const auto t0 = Clock::now();
        last = runner->runAll(nullptr, &timing, &rep);
        analyze(last, names, popts);
        passes.push_back(since(t0));
        out.check(rep.allOk()
                      && timing.perWorkloadSeconds.size() == names.size(),
                  "full pass quarantined a workload");
        out.check(csvOf(names, last) == ref_csv,
                  "full pass CSV differs from the set-up pass");
        lat.insert(lat.end(), timing.perWorkloadSeconds.begin(),
                   timing.perWorkloadSeconds.end());
    }
    out.counts["passes"] = static_cast<double>(passes.size());

    if (!o.trace) {
        reportBatch(out, setups, passes, lat);
        reportAccuracy(out, pins, "accuracy", o.seed, last,
                       sampled.exact, names, popts);
        return;
    }

    // Traced passes: op generation, recording and the detail path as
    // separate calls per workload, then the analysis.
    const std::vector<WorkloadId> ids = allWorkloads();
    const unsigned cores = runner->config().numCores;
    std::vector<std::uint64_t> pass_ids;
    std::vector<std::int64_t> roots;
    std::vector<double> traced;
    std::vector<std::uint64_t> uops(ids.size()), trace_ops(ids.size());
    const auto tstart = Clock::now();
    for (std::uint64_t p = 0;
         pass_ids.empty() || since(tstart) < o.seconds - budget; ++p) {
        Matrix m(ids.size(), kNumMetrics);
        const auto t0 = Clock::now();
        {
            Scope pass(log, "pass", -1, p);
            forEachWorkload(out, o.threads, [&](std::size_t i,
                                                const WorkloadId &id) {
                Scope w(log, "workload", pass.index(), p);
                const std::uint64_t seed = runner->nodeDataSeed(id, 0);
                DropTarget drop(cores);
                {
                    Scope s(log, "stack.execute", w.index(), p);
                    runner->execute(id, drop, seed);
                }
                RecordingTarget rec(cores);
                {
                    Scope s(log, "bench.record", w.index(), p);
                    runner->execute(id, rec, seed);
                }
                SystemModel sys(runner->config());
                {
                    Scope s(log, "uarch.detail", w.index(), p);
                    rec.trace().replay(sys,
                                       [&](std::uint64_t a,
                                           std::uint64_t b) {
                                           sys.dmaFill(a, b);
                                       });
                }
                const MetricVector mv =
                    extractMetrics(sys.aggregateCounters());
                m.setRow(i, std::vector<double>(mv.begin(), mv.end()));
                uops[i] = drop.ops;
            });
            PipelineResult res;
            {
                Scope s(log, "core.pipeline", pass.index(), p);
                res = runPipeline(m, names, popts);
            }
            {
                Scope s(log, "core.findings", pass.index(), p);
                evaluatePaperFindings(res);
            }
            roots.push_back(pass.index());
        }
        traced.push_back(since(t0));
        pass_ids.push_back(p);
        out.check(csvOf(names, m) == ref_csv,
                  "traced full pass differs from runAll");
    }
    out.counts["traced_passes"] = static_cast<double>(pass_ids.size());

    const std::vector<Span> spans = log.spans();
    const std::vector<double> self = ledger::selfTimes(spans);
    auto sum = [&](const std::string &n) {
        return medianPassSum(spans, self, n, pass_ids);
    };
    std::uint64_t total_uops = 0;
    for (std::uint64_t u : uops)
        total_uops += u;
    const double detail = sum("uarch.detail");
    out.set("stack.execute_s", sum("stack.execute"), "s");
    out.set("stack.uops", static_cast<double>(total_uops), "count");
    out.set("uarch.detail_s", detail, "s");
    out.set("uarch.detail_mops_per_s",
            detail > 0 ? static_cast<double>(total_uops) / detail / 1e6
                       : 0.0,
            "Mops/s");
    out.set("core.pipeline_ms", sum("core.pipeline") * 1e3, "ms");
    out.set("core.findings_ms", sum("core.findings") * 1e3, "ms");
    out.set("trace.overhead_suite_s",
            ledger::median(traced) - ledger::median(passes), "s");
    out.set("trace.unattributed_share", unattributed(spans, roots),
            "ratio");
}

// --- sampled-ckpt -----------------------------------------------------

/** The library's per-(workload, node) interval-clustering seed. */
std::uint64_t
pickerSeed(const SamplingOptions &opts, const WorkloadId &id,
           unsigned node)
{
    return opts.seed + 1000 * static_cast<std::uint64_t>(id.alg)
        + (id.stack == StackKind::Spark ? 500000ULL : 0ULL)
        + 7919ULL * static_cast<std::uint64_t>(node);
}

/** Bytes one recorded event occupies in memory. */
double
traceBytesPerEvent(const WorkloadRunner &runner)
{
    const WorkloadId id = allWorkloads().front();
    RecordingTarget rec(runner.config().numCores);
    runner.execute(id, rec, runner.nodeDataSeed(id, 0));
    const struct mallinfo2 before = mallinfo2();
    TraceRecorder copy = rec.trace();
    const struct mallinfo2 after = mallinfo2();
    const double bytes =
        static_cast<double>(after.uordblks + after.hblkhd)
        - static_cast<double>(before.uordblks + before.hblkhd);
    return copy.size() ? bytes / static_cast<double>(copy.size()) : 0.0;
}

/**
 * One sampled pass rebuilt from the capture/replay seam: record,
 * profile, pick and replayCapture per workload, each in its span;
 * `results` and `events` (trace sizes) get one slot per workload.
 * With `probe_cache` set, also time the checkpoint layer, op
 * generation and the simulator paths on every workload's trace, and
 * append each probed checkpoint's size to `entry_bytes`.
 */
Matrix
tracedSampledPass(const Options &o, Outcome &out, SpanLog &log,
                  std::uint64_t p, std::int64_t root,
                  const WorkloadRunner &runner, const SamplingOptions &opts,
                  const CheckpointContext &ctx,
                  std::vector<SampledWorkloadResult> &results,
                  std::vector<std::uint64_t> &events,
                  const CheckpointCache *probe_cache,
                  std::vector<double> *entry_bytes)
{
    const std::vector<WorkloadId> ids = allWorkloads();
    Matrix m(ids.size(), kNumMetrics);
    std::mutex mutex;
    forEachWorkload(out, o.threads, [&](std::size_t i,
                                        const WorkloadId &id) {
        Scope w(log, "workload", root, p);
        WorkloadCapture cap;
        cap.id = id;
        cap.node = 0;
        cap.numCores = runner.config().numCores;
        {
            Scope s(log, "sample.record", w.index(), p);
            RecordingTarget rec(cap.numCores);
            runner.execute(id, rec, runner.attemptDataSeed(id, 0, 0));
            cap.trace = rec.trace();
        }
        IntervalProfiler prof(opts.intervalUops, opts.bbvDims);
        {
            Scope s(log, "sample.profile", w.index(), p);
            cap.trace.replay(prof);
            prof.finish();
        }
        cap.numIntervals = prof.numIntervals();
        {
            Scope s(log, "sample.pick", w.index(), p);
            RepresentativePicker picker(opts);
            cap.picked = picker.pick(prof.featureMatrix(),
                                     prof.intervals(),
                                     pickerSeed(opts, id, 0));
        }
        SampledWorkloadResult r;
        {
            Scope s(log, "sample.replay", w.index(), p);
            r = replayCapture(cap, runner.config(), opts, &ctx);
        }
        m.setRow(i, std::vector<double>(r.metrics.begin(),
                                        r.metrics.end()));
        events[i] = cap.trace.size();
        if (!probe_cache) {
            results[i] = std::move(r);
            return;
        }

        // The checkpoint layer on this workload's first representative.
        const CheckpointKey key = ctx.keyFor(id.name(), 0);
        const std::uint64_t interval = cap.picked.reps.front().interval;
        std::string state;
        bool found = false;
        {
            Scope s(log, "ckpt.load", w.index(), p);
            found = ctx.cache->load(key, interval, &state);
        }
        SystemModel restored(runner.config());
        {
            Scope s(log, "ckpt.decode", w.index(), p);
            StateSource src(state, "ledger probe");
            restored.loadState(src);
            src.finish();
        }
        StateSink sink;
        {
            Scope s(log, "ckpt.encode", w.index(), p);
            restored.saveState(sink);
        }
        {
            Scope s(log, "ckpt.store", w.index(), p);
            probe_cache->store(key, interval, state);
        }

        // Op generation alone, into a target that drops every op.
        DropTarget drop(cap.numCores);
        {
            Scope s(log, "stack.execute", w.index(), p);
            runner.execute(id, drop, runner.attemptDataSeed(id, 0, 0));
        }

        // The simulator's detail and warming paths over the whole trace.
        auto dma = [](SystemModel &sys) {
            return [&sys](std::uint64_t a, std::uint64_t b) {
                sys.dmaFill(a, b);
            };
        };
        SystemModel detail(runner.config());
        {
            Scope s(log, "uarch.detail", w.index(), p);
            cap.trace.replay(detail, dma(detail));
        }
        SystemModel warm(runner.config());
        warm.setCounterFreeze(true);
        {
            Scope s(log, "uarch.warm", w.index(), p);
            cap.trace.replay(warm, dma(warm));
        }

        std::lock_guard<std::mutex> lock(mutex);
        out.check(found, id.name() + ": representative checkpoint "
                             "missing from the warm directory");
        out.check(sink.bytes() == state,
                  id.name() + ": checkpoint re-encode differs");
        out.check(drop.ops == r.stats.totalOps,
                  id.name() + ": op generation and recording disagree");
        entry_bytes->push_back(static_cast<double>(state.size()));
        results[i] = std::move(r);
    });
    return m;
}

/** Representatives of one pass. */
std::uint64_t
repsOf(const std::vector<SampledWorkloadResult> &results)
{
    std::uint64_t reps = 0;
    for (const SampledWorkloadResult &r : results)
        reps += r.numReps;
    return reps;
}

/** Checks every warm pass must pass. */
void
checkWarm(Outcome &out, const std::vector<SampledWorkloadResult> &results,
          const CkptStats &delta, std::uint64_t probe_loads)
{
    const std::uint64_t reps = repsOf(results);
    std::uint64_t restores = 0, warm = 0;
    for (const SampledWorkloadResult &r : results) {
        restores += r.stats.ckptRestores;
        warm += r.stats.warmOps;
    }
    out.check(restores == reps,
              "warm pass restored " + std::to_string(restores) + " of "
                  + std::to_string(reps) + " representatives");
    out.check(warm == 0, "warm pass warmed " + std::to_string(warm)
                             + " uops");
    out.check(delta.fallbacks == 0 && delta.misses == 0,
              "warm pass had checkpoint fallbacks or misses");
    out.check(delta.hits == reps + probe_loads,
              "warm pass checkpoint hits " + std::to_string(delta.hits));
}

CkptStats
minus(const CkptStats &a, const CkptStats &b)
{
    CkptStats d;
    d.hits = a.hits - b.hits;
    d.misses = a.misses - b.misses;
    d.writes = a.writes - b.writes;
    d.fallbacks = a.fallbacks - b.fallbacks;
    d.bytesRead = a.bytesRead - b.bytesRead;
    d.bytesWritten = a.bytesWritten - b.bytesWritten;
    return d;
}

/** Span id of the traced cold set-up pass (warm passes count from 0). */
constexpr std::uint64_t kColdPass = 1000000;

void
runSampledCkpt(const Options &o, const Pins &pins, Outcome &out,
               SpanLog &log)
{
    RunConfig cfg = baseConfig(o, o.seed);
    cfg.sampling.enabled = true;
    cfg.ckpt.enabled = true;
    cfg.ckpt.dir = o.runDir + "/ckpt";
    const PipelineOptions popts = pipelineOptionsFor(cfg);
    const std::vector<std::string> names = suiteNames();
    const std::size_t n = names.size();

    Fixture full;
    if (!o.trace) {
        full = fixture(o, "full", o.seed);
        checkPinned(out, pins, "full", o.seed, full.csv);
    }

    // Set-up: a cold checkpointing pass on a fresh directory.
    std::vector<double> setups;
    std::unique_ptr<WorkloadRunner> runner;
    std::unique_ptr<SampledCharacterizer> sampler;
    CheckpointContext ctx;
    std::string cold_csv;
    std::uint64_t reps = 0;
    std::uint64_t cold_warm = 0;
    std::vector<std::uint64_t> events(n);
    for (int k = 0; k < (o.trace ? 1 : 3); ++k) {
        fs::remove_all(cfg.ckpt.dir);
        const CkptStats before = ckptStats();
        const auto t0 = Clock::now();
        runner = std::make_unique<WorkloadRunner>(
            WorkloadRunner::fromRunConfig(cfg));
        sampler = std::make_unique<SampledCharacterizer>(*runner,
                                                         cfg.sampling);
        ctx = checkpointContextFor(cfg);
        sampler->setCheckpoints(ctx);
        Matrix m;
        std::vector<SampledWorkloadResult> details;
        if (o.trace) {
            details.resize(n);
            Scope root(log, "cold", -1, kColdPass);
            m = tracedSampledPass(o, out, log, kColdPass, root.index(),
                                  *runner, cfg.sampling, ctx, details,
                                  events, nullptr, nullptr);
        } else {
            SweepReport rep;
            m = sampler->runAll(&details, &rep);
            out.check(rep.allOk(), "cold pass quarantined a workload");
        }
        analyze(m, names, popts);
        setups.push_back(since(t0));
        const CkptStats delta = minus(ckptStats(), before);
        std::uint64_t writes = 0;
        cold_warm = 0;
        for (const SampledWorkloadResult &d : details) {
            writes += d.stats.ckptWrites;
            cold_warm += d.stats.warmOps;
        }
        reps = repsOf(details);
        out.check(writes == reps && delta.writes == reps
                      && delta.fallbacks == 0,
                  "cold pass wrote " + std::to_string(delta.writes)
                      + " checkpoints for " + std::to_string(reps)
                      + " representatives");
        const std::string csv = csvOf(names, m);
        if (k == 0)
            cold_csv = csv;
        else
            out.check(csv == cold_csv, "cold passes differ");
    }
    checkPinned(out, pins, "sampled", o.seed, cold_csv);

    // Untraced warm passes.
    const auto start = Clock::now();
    const double budget = o.trace ? 0.4 * o.seconds : o.seconds;
    std::vector<double> passes, lat;
    Matrix last;
    while (passes.size() < (o.trace ? 2u : 3u) || since(start) < budget) {
        std::vector<SampledWorkloadResult> details;
        SweepReport rep;
        const CkptStats before = ckptStats();
        const auto t0 = Clock::now();
        last = sampler->runAll(&details, &rep);
        analyze(last, names, popts);
        passes.push_back(since(t0));
        const CkptStats delta = minus(ckptStats(), before);
        out.check(rep.allOk() && details.size() == n,
                  "warm pass quarantined a workload");
        out.check(csvOf(names, last) == cold_csv,
                  "warm pass CSV differs from the cold pass");
        for (const SampledWorkloadResult &d : details)
            lat.push_back(d.wallSeconds);
        checkWarm(out, details, delta, 0);
    }
    out.counts["passes"] = static_cast<double>(passes.size());
    out.counts["checkpoints"] = static_cast<double>(reps);

    if (!o.trace) {
        reportBatch(out, setups, passes, lat);
        reportAccuracy(out, pins, "accuracy", o.seed, full.exact, last,
                       names, popts);
        return;
    }

    // Traced warm passes with the checkpoint and simulator probes.
    CheckpointCache probe_cache(o.runDir + "/probe");
    std::vector<double> entry_bytes;
    std::vector<SampledWorkloadResult> results(n);
    std::vector<std::uint64_t> pass_ids;
    std::vector<std::int64_t> roots;
    std::vector<double> traced;
    CkptStats d;
    const auto tstart = Clock::now();
    for (std::uint64_t p = 0;
         pass_ids.empty() || since(tstart) < o.seconds - budget; ++p) {
        const CkptStats before = ckptStats();
        const auto t0 = Clock::now();
        Matrix m;
        {
            Scope pass(log, "pass", -1, p);
            m = tracedSampledPass(o, out, log, p, pass.index(), *runner,
                                  cfg.sampling, ctx, results, events,
                                  &probe_cache, &entry_bytes);
            PipelineResult res;
            {
                Scope s(log, "core.pipeline", pass.index(), p);
                res = runPipeline(m, names, popts);
            }
            {
                Scope s(log, "core.findings", pass.index(), p);
                evaluatePaperFindings(res);
            }
            roots.push_back(pass.index());
        }
        traced.push_back(since(t0));
        pass_ids.push_back(p);
        d = minus(ckptStats(), before);
        checkWarm(out, results, d, n);
        // The probes' own cache traffic is not the route's.
        d.hits -= std::min<std::uint64_t>(d.hits, n);
        d.writes -= std::min<std::uint64_t>(d.writes, n);
        out.check(csvOf(names, m) == cold_csv,
                  "traced warm pass differs from the cold pass");
    }
    out.counts["traced_passes"] = static_cast<double>(pass_ids.size());

    const std::vector<Span> spans = log.spans();
    const std::vector<double> self = ledger::selfTimes(spans);
    auto sum = [&](const std::string &name) {
        return medianPassSum(spans, self, name, pass_ids);
    };
    std::uint64_t total = 0, detail = 0, warm = 0, skipped = 0,
                  all_events = 0;
    for (const SampledWorkloadResult &r : results) {
        total += r.stats.totalOps;
        detail += r.stats.detailOps;
        warm += r.stats.warmOps;
        skipped += r.stats.skippedOps;
    }
    for (std::uint64_t e : events)
        all_events += e;
    const double detail_s = sum("uarch.detail");
    const double warm_s = sum("uarch.warm");
    const double tries = static_cast<double>(d.hits + d.misses
                                             + d.fallbacks);
    out.set("stack.execute_s", sum("stack.execute"), "s");
    out.set("stack.uops", static_cast<double>(total), "count");
    out.set("sample.record_s", sum("sample.record"), "s");
    out.set("sample.profile_s", sum("sample.profile"), "s");
    out.set("sample.pick_s", sum("sample.pick"), "s");
    out.set("sample.trace_mb",
            static_cast<double>(all_events) * traceBytesPerEvent(*runner)
                / (1024.0 * 1024.0),
            "MiB");
    out.set("sample.replay_s", sum("sample.replay"), "s");
    out.set("sample.detail_uops", static_cast<double>(detail), "count");
    out.set("sample.warm_uops", static_cast<double>(warm), "count");
    out.set("sample.skipped_uops", static_cast<double>(skipped), "count");
    out.set("sample.reps", static_cast<double>(reps), "count");
    out.set("sample.cold_replay_s",
            medianPassSum(spans, self, "sample.replay", {kColdPass}), "s");
    out.set("sample.cold_warm_uops", static_cast<double>(cold_warm),
            "count");
    out.set("uarch.detail_s", detail_s, "s");
    out.set("uarch.detail_mops_per_s",
            detail_s > 0 ? static_cast<double>(total) / detail_s / 1e6
                         : 0.0,
            "Mops/s");
    out.set("uarch.warm_s", warm_s, "s");
    out.set("uarch.warm_mops_per_s",
            warm_s > 0 ? static_cast<double>(total) / warm_s / 1e6 : 0.0,
            "Mops/s");
    auto per_call_ms = [&](const std::string &name) {
        return medianOr0(durations(spans, name)) * 1e3;
    };
    out.set("ckpt.encode_ms", per_call_ms("ckpt.encode"), "ms");
    out.set("ckpt.decode_ms", per_call_ms("ckpt.decode"), "ms");
    out.set("ckpt.entry_mb", medianOr0(entry_bytes) / (1024.0 * 1024.0),
            "MiB");
    out.set("ckpt.load_ms", per_call_ms("ckpt.load"), "ms");
    out.set("ckpt.store_ms", per_call_ms("ckpt.store"), "ms");
    out.set("ckpt.hits", static_cast<double>(d.hits), "count");
    out.set("ckpt.misses", static_cast<double>(d.misses), "count");
    out.set("ckpt.writes", static_cast<double>(d.writes), "count");
    out.set("ckpt.fallbacks", static_cast<double>(d.fallbacks), "count");
    out.set("ckpt.hit_ratio",
            tries > 0 ? static_cast<double>(d.hits) / tries : 0.0,
            "ratio");
    out.set("core.pipeline_ms", sum("core.pipeline") * 1e3, "ms");
    out.set("core.findings_ms", sum("core.findings") * 1e3, "ms");
    out.set("trace.overhead_suite_s",
            ledger::median(traced) - ledger::median(passes), "s");
    out.set("trace.unattributed_share", unattributed(spans, roots),
            "ratio");
}

// --- serve-hot ----------------------------------------------------------

/** One client connection to the daemon's Unix socket. */
class Conn
{
  public:
    explicit Conn(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket(): "
                                     + std::string(std::strerror(errno)));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("socket path too long");
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr))
            != 0) {
            const int err = errno;
            ::close(fd_);
            fd_ = -1;
            throw std::runtime_error("connect(): "
                                     + std::string(std::strerror(err)));
        }
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    /** A parsed reply. */
    struct Reply
    {
        bool ok = false;
        bool hit = false;
        std::string header;
        std::string payload;
    };

    void
    send(const std::string &line)
    {
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t w = ::send(fd_, line.data() + off,
                                     line.size() - off, MSG_NOSIGNAL);
            if (w <= 0)
                throw std::runtime_error("send to the daemon failed");
            off += static_cast<std::size_t>(w);
        }
    }

    std::string
    readLine()
    {
        while (true) {
            const std::size_t nl = buf_.find('\n', pos_);
            if (nl != std::string::npos) {
                std::string line = buf_.substr(pos_, nl - pos_);
                pos_ = nl + 1;
                return line;
            }
            fill();
        }
    }

    /** Send one characterize line and read its framed reply. */
    Reply
    request(const std::string &line)
    {
        send(line + "\n");
        Reply r;
        r.header = readLine();
        if (r.header.rfind("ok ", 0) != 0)
            return r;
        r.ok = true;
        r.hit = r.header.find(" hit=1") != std::string::npos;
        const std::size_t b = r.header.find(" bytes=");
        if (b == std::string::npos)
            throw std::runtime_error("reply without bytes=");
        const std::size_t want = std::stoull(r.header.substr(b + 7));
        while (buf_.size() - pos_ < want)
            fill();
        r.payload = buf_.substr(pos_, want);
        pos_ += want;
        return r;
    }

  private:
    void
    fill()
    {
        if (pos_ > 0 && pos_ == buf_.size()) {
            buf_.clear();
            pos_ = 0;
        }
        char chunk[65536];
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n <= 0)
            throw std::runtime_error("the daemon closed the connection");
        buf_.append(chunk, static_cast<std::size_t>(n));
    }

    int fd_ = -1;
    std::string buf_;
    std::size_t pos_ = 0;
};

/** A bds_serve child process; killed and reaped if not quit. */
class Daemon
{
  public:
    Daemon(const Options &o, const std::string &dir)
        : socket_(dir + "/sock")
    {
        pid_ = spawn({o.serveBin, "--serve-socket", socket_,
                      "--serve-cache", dir + "/store", "--threads",
                      std::to_string(o.threads), "--scale", "quick",
                      "--no-ckpt", "--no-manifest"});
        const auto t0 = Clock::now();
        while (true) {
            try {
                Conn probe(socket_);
                return;
            } catch (const std::exception &) {
            }
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("bds_serve exited at start-up");
            }
            if (since(t0) > 60.0)
                throw std::runtime_error("bds_serve did not listen");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
            }
        }
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }

    /** The daemon's `stats` counters by name. */
    std::map<std::string, std::uint64_t>
    stats() const
    {
        Conn c(socket_);
        c.send("stats\n");
        std::istringstream ss(c.readLine());
        std::map<std::string, std::uint64_t> out;
        std::string tok;
        while (ss >> tok) {
            const std::size_t eq = tok.find('=');
            if (eq != std::string::npos)
                out[tok.substr(0, eq)] = std::stoull(tok.substr(eq + 1));
        }
        return out;
    }

    /** Send quit, reap the process; returns its peak RSS in MiB. */
    double
    quit()
    {
        {
            Conn c(socket_);
            c.send("quit\n");
            c.readLine();
        }
        int status = 0;
        rusage ru{};
        while (wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("bds_serve exited uncleanly");
        return static_cast<double>(ru.ru_maxrss) / 1024.0;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** What the serve-hot set-up produced. */
struct ServeSetup
{
    std::unique_ptr<Daemon> daemon;
    std::vector<ledger::Cell> cells;
    std::vector<std::string> payloads; ///< per cell, full width
};

ServeSetup
setupServe(const Options &o, const Pins &pins, Outcome &out,
           const std::string &dir, std::vector<double> &setups, int times)
{
    ServeSetup st;
    st.cells = ledger::serveCells(o.seed);
    for (int k = 0; k < times; ++k) {
        if (st.daemon)
            st.daemon->quit();
        st.daemon.reset();
        fs::remove_all(dir);
        fs::create_directories(dir);
        const auto t0 = Clock::now();
        st.daemon = std::make_unique<Daemon>(o, dir);
        std::vector<std::string> payloads;
        {
            Conn c(st.daemon->socket());
            for (const ledger::Cell &cell : st.cells) {
                const Conn::Reply r =
                    c.request(ledger::requestLine(cell, nullptr));
                out.check(r.ok && !r.hit,
                          "set-up compute answered '" + r.header + "'");
                payloads.push_back(r.payload);
            }
        }
        setups.push_back(since(t0));
        if (k == 0)
            st.payloads = payloads;
        else
            out.check(payloads == st.payloads, "set-up computes differ");
    }
    for (std::size_t c = 0; c < st.cells.size(); ++c)
        checkPinned(out, pins, st.cells[c].sampled ? "sampled" : "full",
                    st.cells[c].seed, st.payloads[c]);
    return st;
}

/** Latencies and checks of one closed loop. */
struct LoopResult
{
    std::vector<double> all, full, projected;
    double seconds = 0.0;
    std::int64_t root = -1;
};

/**
 * The closed loop: one thread per connection, each sending its next
 * request only after the whole reply arrived. `first` holds the first
 * payload seen per (cell, projection); later ones must equal it.
 */
LoopResult
closedLoop(const Options &o, Outcome &out, const ServeSetup &st,
           const std::vector<std::vector<std::string>> &lines,
           std::vector<std::string> &first, double seconds,
           SpanLog *log, std::uint64_t id_base)
{
    const unsigned conns = o.connections;
    std::vector<std::unique_ptr<Conn>> cs;
    for (unsigned c = 0; c < conns; ++c)
        cs.push_back(std::make_unique<Conn>(st.daemon->socket()));
    struct PerConn
    {
        std::vector<double> all, full, projected;
        std::vector<std::string> first;
        std::vector<Span> spans;
        std::uint64_t failed = 0, attempted = 0;
        std::string problem;
    };
    std::vector<PerConn> per(conns);
    std::atomic<bool> go{false};
    Clock::time_point deadline;
    LoopResult res;
    std::optional<Scope> root;
    if (log) {
        root.emplace(*log, "loop", -1, id_base);
        res.root = root->index();
    }
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns; ++c)
        threads.emplace_back([&, c] {
            PerConn &pc = per[c];
            pc.first = first;
            ledger::LoadGenerator gen(o.seed, c, st.cells.size());
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            try {
                for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
                    const ledger::LoadRequest rq = gen.next();
                    const std::string &line =
                        lines[rq.cell][static_cast<std::size_t>(
                            rq.projection + 1)];
                    Span span;
                    if (log) {
                        span.name = "serve.socket";
                        span.parent = res.root;
                        span.id = id_base + (std::uint64_t{c} << 32) + k;
                        span.start = log->now();
                    }
                    const auto t0 = Clock::now();
                    const Conn::Reply r = cs[c]->request(line);
                    const double dt = since(t0);
                    if (log) {
                        span.end = log->now();
                        pc.spans.push_back(std::move(span));
                    }
                    pc.all.push_back(dt);
                    bool ok = r.ok && r.hit;
                    if (rq.projection < 0) {
                        pc.full.push_back(dt);
                        ok = ok && r.payload == st.payloads[rq.cell];
                    } else {
                        pc.projected.push_back(dt);
                        std::string &f =
                            pc.first[rq.cell * ledger::kProjectionPool
                                     + static_cast<std::size_t>(
                                         rq.projection)];
                        if (f.empty())
                            f = r.payload;
                        ok = ok && r.payload == f;
                    }
                    ++pc.attempted;
                    if (!ok) {
                        ++pc.failed;
                        if (pc.problem.empty())
                            pc.problem = "request '" + line
                                + "' answered '" + r.header + "'";
                    }
                }
            } catch (const std::exception &e) {
                ++pc.failed;
                pc.problem = e.what();
            }
        });
    const auto t0 = Clock::now();
    deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();
    res.seconds = since(t0);
    root.reset();
    for (PerConn &pc : per) {
        out.attempted += pc.attempted;
        out.failed += pc.failed;
        if (!pc.problem.empty()) {
            std::cerr << "ledger: CHECK FAILED: " << pc.problem << "\n";
            out.problems.push_back(pc.problem);
        }
        res.all.insert(res.all.end(), pc.all.begin(), pc.all.end());
        res.full.insert(res.full.end(), pc.full.begin(), pc.full.end());
        res.projected.insert(res.projected.end(), pc.projected.begin(),
                             pc.projected.end());
        for (std::size_t i = 0; i < first.size(); ++i) {
            if (first[i].empty())
                first[i] = pc.first[i];
            else if (!pc.first[i].empty() && pc.first[i] != first[i])
                out.check(false, "connections saw different payloads "
                                 "for one (cell, projection)");
        }
        if (log)
            log->add(std::move(pc.spans));
    }
    return res;
}

void
runServeHot(const Options &o, const Pins &pins, Outcome &out,
            SpanLog &log)
{
    const std::string dir = o.runDir + "/serve";
    std::vector<double> setups;
    ServeSetup st = setupServe(o, pins, out, dir, setups, o.trace ? 1 : 3);

    const std::vector<ledger::Projection> pool =
        ledger::projectionPool(o.seed);
    std::vector<std::vector<RequestRecord>> recs(st.cells.size());
    std::vector<std::vector<std::string>> lines(st.cells.size());
    for (std::size_t c = 0; c < st.cells.size(); ++c)
        for (int p = -1; p < static_cast<int>(pool.size()); ++p) {
            const std::string line = ledger::requestLine(
                st.cells[c],
                p < 0 ? nullptr : &pool[static_cast<std::size_t>(p)]);
            lines[c].push_back(line);
            recs[c].push_back(parseRequestLine(line));
        }
    std::vector<std::string> first(st.cells.size()
                                   * ledger::kProjectionPool);

    auto before = st.daemon->stats();
    const double share = o.trace ? o.seconds / 3.0 : o.seconds;
    LoopResult plain = closedLoop(o, out, st, lines, first, share,
                                  nullptr, 0);
    LoopResult traced;
    if (o.trace)
        traced = closedLoop(o, out, st, lines, first, share, &log,
                            std::uint64_t{1} << 40);
    auto after = st.daemon->stats();
    const std::uint64_t sent = plain.all.size() + traced.all.size();
    auto delta = [&](const std::string &k) {
        return after[k] - before[k];
    };
    out.check(delta("hits") == sent && delta("misses") == 0
                  && delta("errors") == 0 && delta("shed") == 0,
              "daemon counted " + std::to_string(delta("hits"))
                  + " hits for " + std::to_string(sent) + " requests");
    out.counts["requests"] = static_cast<double>(plain.all.size());
    out.samples["setup_s"] = setups;
    out.counts["connections"] = o.connections;

    if (!o.trace) {
        const double rss = st.daemon->quit();
        const Matrix full = matrixOfCsv(st.payloads[0]);
        const Matrix sampled = matrixOfCsv(st.payloads[1]);
        RunConfig cfg = baseConfig(o, o.seed);
        out.set("setup_s", ledger::median(setups), "s");
        out.set("suite_s", ledger::median(plain.full), "s");
        out.set("req_per_s",
                static_cast<double>(plain.all.size()) / plain.seconds,
                "req/s");
        out.set("req_p50_us", ledger::median(plain.all) * 1e6, "us");
        double q = 0.0;
        out.set("req_p99_us", ledger::p99OrTail(plain.all, &q) * 1e6,
                "us");
        out.check(q == 0.99, "fewer than 1000 requests for the p99");
        out.set("peak_rss_mb", rss, "MiB");
        reportAccuracy(out, pins, "accuracy-served", o.seed, full,
                       sampled, suiteNames(), pipelineOptionsFor(cfg));
        return;
    }

    // In-process: the same mix through a ServeEngine on the same
    // store, with the hash, the store read and handle() timed apart.
    RunConfig ecfg = baseConfig(o, o.seed);
    ecfg.serve.storeDir = dir + "/store";
    ServeEngine engine(ecfg);
    std::int64_t root = -1;
    {
        Scope loop(log, "inprocess", -1, std::uint64_t{2} << 40);
        root = loop.index();
        std::vector<std::thread> threads;
        std::mutex mutex;
        const auto deadline =
            Clock::now()
            + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(share));
        for (unsigned c = 0; c < o.connections; ++c)
            threads.emplace_back([&, c] {
                ledger::LoadGenerator gen(o.seed, c, st.cells.size());
                std::uint64_t failed = 0, attempted = 0;
                try {
                    for (std::uint64_t k = 0; Clock::now() < deadline;
                         ++k) {
                        const ledger::LoadRequest rq = gen.next();
                        const RequestRecord &rec =
                            recs[rq.cell][static_cast<std::size_t>(
                                rq.projection + 1)];
                        const std::uint64_t id = (std::uint64_t{2} << 40)
                            + (std::uint64_t{c} << 32) + k;
                        Scope r(log, "serve.request", root, id);
                        std::string hash;
                        {
                            Scope s(log, "serve.hash", r.index(), id);
                            hash = runConfigHashHex(
                                engine.requestConfig(rec));
                        }
                        ResultEntry entry;
                        bool found = false;
                        {
                            Scope s(log, "store.read", r.index(), id);
                            found = engine.store().load(hash, &entry);
                        }
                        ServeResponse resp;
                        {
                            Scope s(log,
                                    rq.projection < 0
                                        ? "serve.hit_full"
                                        : "serve.hit_projected",
                                    r.index(), id);
                            resp = engine.handle(rec);
                        }
                        const std::string &want =
                            rq.projection < 0
                                ? st.payloads[rq.cell]
                                : first[rq.cell * ledger::kProjectionPool
                                        + static_cast<std::size_t>(
                                            rq.projection)];
                        ++attempted;
                        if (!(found && resp.ok && resp.hit
                              && (want.empty() || resp.payload == want)))
                            ++failed;
                    }
                } catch (const std::exception &e) {
                    ++failed;
                }
                std::lock_guard<std::mutex> lock(mutex);
                out.attempted += attempted;
                out.failed += failed;
                if (failed)
                    out.problems.push_back("in-process request failed");
            });
        for (std::thread &t : threads)
            t.join();
    }
    const auto stats = after;
    st.daemon->quit();

    const std::vector<Span> spans = log.spans();
    std::vector<double> handle = durations(spans, "serve.hit_full");
    const std::vector<double> proj = durations(spans, "serve.hit_projected");
    const double full_us = medianOr0(handle) * 1e6;
    handle.insert(handle.end(), proj.begin(), proj.end());
    const double plain_p50 = ledger::median(plain.all);
    const double hits = static_cast<double>(delta("hits"));
    const double misses = static_cast<double>(delta("misses"));
    out.set("store.read_us", medianOr0(durations(spans, "store.read")) * 1e6,
            "us");
    out.set("store.publishes",
            static_cast<double>(stats.at("store_publishes")), "count");
    out.set("store.evicted", static_cast<double>(stats.at("store_evicted")),
            "count");
    out.set("store.lease_acquires",
            static_cast<double>(stats.at("store_lease_acquires")), "count");
    out.set("store.lease_waits",
            static_cast<double>(stats.at("store_lease_waits")), "count");
    out.set("serve.hash_us", medianOr0(durations(spans, "serve.hash")) * 1e6,
            "us");
    out.set("serve.hit_full_us", full_us, "us");
    out.set("serve.hit_projected_us", medianOr0(proj) * 1e6, "us");
    out.set("serve.transport_us", (plain_p50 - medianOr0(handle)) * 1e6,
            "us");
    out.set("serve.hits", hits, "count");
    out.set("serve.misses", misses, "count");
    out.set("serve.errors", static_cast<double>(delta("errors")), "count");
    out.set("serve.shed", static_cast<double>(delta("shed")), "count");
    out.set("serve.hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    out.set("trace.overhead_p50_us",
            (ledger::median(traced.all) - plain_p50) * 1e6, "us");
    out.set("trace.unattributed_share", unattributed(spans, {traced.root}),
            "ratio");
    out.counts["traced_requests"] = static_cast<double>(traced.all.size());
    out.counts["inprocess_requests"] = static_cast<double>(handle.size());
}

// --- output -------------------------------------------------------------

std::string
num(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

/** `{"name": {"value": v, "unit": "u"}, ...}`, entries joined by `sep`. */
std::string
metricsJson(const std::vector<std::pair<std::string,
                                        std::pair<double, std::string>>> &ms,
            const char *sep)
{
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i)
        s += std::string(i ? "," : "") + sep + '"' + ms[i].first
            + "\": {\"value\": " + num(ms[i].second.first)
            + ", \"unit\": \"" + ms[i].second.second + "\"}";
    return s + "}";
}

void
writeReport(const Options &o, const Outcome &out, const std::string &path)
{
    std::ofstream os(path, std::ios::trunc);
    os << "{\n  \"workload\": \"" << o.workload << "\",\n"
       << "  \"seed\": " << o.seed << ",\n"
       << "  \"seconds\": " << num(o.seconds) << ",\n"
       << "  \"trace\": " << (o.trace ? "true" : "false") << ",\n"
       << "  \"scale\": \"quick\",\n"
       << "  \"nproc\": " << ledger::nprocAvailable() << ",\n"
       << "  \"threads\": " << o.threads << ",\n"
       << "  \"connections\": " << o.connections << ",\n"
       << "  \"git_commit\": \"" << o.commit << "\",\n"
       << "  \"src_digest\": \"" << o.srcDigest << "\",\n";
    bdsbench::writeEnvironmentJson(os, "  ");
    os << ",\n  \"attempted\": " << out.attempted
       << ",\n  \"failed\": " << out.failed << ",\n  \"problems\": [";
    for (std::size_t i = 0; i < out.problems.size(); ++i)
        os << (i ? ", " : "") << '"' << jsonEscape(out.problems[i])
           << '"';
    os << "],\n  \"counts\": {";
    bool comma = false;
    for (const auto &[k, v] : out.counts) {
        os << (comma ? ", " : "") << '"' << k << "\": " << num(v);
        comma = true;
    }
    os << "},\n  \"samples\": {";
    comma = false;
    for (const auto &[k, v] : out.samples) {
        os << (comma ? ",\n    " : "\n    ") << '"' << k << "\": [";
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? ", " : "") << num(v[i]);
        os << "]";
        comma = true;
    }
    os << "\n  },\n  \"metrics\": " << metricsJson(out.metrics, "\n    ")
       << "\n}\n";
}

int
runLedger(Options &o)
{
    const std::string ws = o.workload;
    if (ws != "full" && ws != "sampled-ckpt" && ws != "serve-hot") {
        std::cerr << "ledger: unknown workload '" << ws
                  << "' (full, sampled-ckpt, serve-hot)\n";
        return 2;
    }
    const Pins pins = loadPins(o.digests);
    const std::string base = o.runDir;
    o.runDir = base + "/" + ws;
    fs::remove_all(o.runDir);
    fs::create_directories(o.runDir);

    std::cerr << "ledger: " << ws << " seed=" << o.seed
              << " seconds=" << o.seconds << " trace=" << o.trace
              << " nproc=" << ledger::nprocAvailable()
              << " threads=" << o.threads
              << " connections=" << o.connections
              << " build=" << BDS_BUILD_TYPE << " commit=" << o.commit
              << "\n";

    Outcome out;
    SpanLog log;
    if (ws == "full")
        runFull(o, pins, out, log);
    else if (ws == "sampled-ckpt")
        runSampledCkpt(o, pins, out, log);
    else
        runServeHot(o, pins, out, log);

    // Traced runs report every per-layer metric; a layer the
    // workload does not exercise did no work.
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        shown;
    if (o.trace) {
        for (const auto &[name, unit] : kPerLayer) {
            double v = 0.0;
            for (const auto &m : out.metrics)
                if (m.first == name)
                    v = m.second.first;
            shown.push_back({name, {v, unit}});
        }
    } else {
        shown = out.metrics;
    }
    for (auto &m : shown)
        if (!std::isfinite(m.second.first)) {
            out.check(false, m.first + " is not finite");
            m.second.first = 0.0;
        }

    out.metrics = shown;
    const std::string stem = o.runDir + "/seed" + std::to_string(o.seed)
        + (o.trace ? "-trace" : "");
    writeReport(o, out, stem + ".json");
    if (o.trace) {
        std::ofstream spans(stem + ".spans.jsonl", std::ios::trunc);
        ledger::writeSpans(spans, log.spans());
        std::cout << "self time by span (s):\n";
        for (const auto &[name, s] : ledger::selfTimeByName(log.spans()))
            std::cout << "  " << name << " " << num(s) << "\n";
    }
    // Only the reports stay: the checkpoint directories are hundreds
    // of MB.
    fs::remove_all(o.runDir + "/ckpt");
    fs::remove_all(o.runDir + "/probe");
    fs::remove_all(o.runDir + "/serve");

    for (const auto &[name, v] : shown)
        std::cout << name << " = " << num(v.first) << " " << v.second
                  << "\n";
    std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed
              << ", \"metrics\": " << metricsJson(shown, " ") << "}"
              << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A number from an unoptimized build is not a number.
    if (std::string(BDS_BUILD_TYPE) != "Release") {
        std::cerr << "ledger: REFUSING to measure: this is a '"
                  << BDS_BUILD_TYPE
                  << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }
    Options o;
    o.self = argv[0];
    std::string fixture, fixture_out;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = value() == "1";
            else if (a == "--serve-bin")
                o.serveBin = value();
            else if (a == "--digests")
                o.digests = value();
            else if (a == "--run-dir")
                o.runDir = value();
            else if (a == "--commit")
                o.commit = value();
            else if (a == "--src-digest")
                o.srcDigest = value();
            else if (a == "--fixture")
                fixture = value();
            else if (a == "--out")
                fixture_out = value();
            else
                throw std::invalid_argument("unknown argument '" + a + "'");
        }
        o.threads = ledger::clampToNproc(o.threads);
        o.connections = ledger::clampToNproc(o.connections);
        if (!fixture.empty())
            return runFixture(o, fixture, fixture_out);
        if (o.seconds <= 0.0)
            throw std::invalid_argument("--seconds must be positive");
        return runLedger(o);
    } catch (const std::exception &e) {
        std::cerr << "ledger: " << e.what() << "\n";
        return 1;
    }
}
