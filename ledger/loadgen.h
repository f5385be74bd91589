/**
 * @file
 * The serve-hot load generator and the statistics helpers of the
 * wall-clock ledger.
 *
 * serve-hot drives a closed loop: each client connection sends its
 * next request only after the previous reply has fully arrived. The
 * request mix is drawn from the workload seed alone:
 *
 *  - cell popularity is Zipf (s = 1) over the four cells the set-up
 *    computed, in rank order (seed s full, seed s sampled, seed s+1
 *    full, seed s+1 sampled);
 *  - two thirds of the requests are full-width (the engine answers
 *    with the stored CSV bytes), one third is projected onto one of a
 *    fixed pool of random workload and metric subsets (the engine
 *    parses the CSV and writes it again). Projected requests take
 *    several times longer than full-width ones, so with a half/half
 *    mix the p50 would sit in the gap between the two modes and jump
 *    between them from seed to seed; at one third it is a stable
 *    percentile of the full-width mode.
 *
 * Every connection draws from its own PCG32 stream, so the sequence a
 * connection sends depends only on (seed, connection index).
 */

#ifndef LEDGER_LOADGEN_H
#define LEDGER_LOADGEN_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "common/rng.h"
#include "metrics/schema.h"
#include "serve/request.h"

namespace ledger {

/** One cell the serve-hot set-up computes. */
struct Cell
{
    std::uint64_t seed = 42;
    bool sampled = false;
};

/** The four cells of seed `s`, most popular first. */
inline std::vector<Cell>
serveCells(std::uint64_t s)
{
    return {{s, false}, {s, true}, {s + 1, false}, {s + 1, true}};
}

/** A response projection: workload rows and metric columns. */
struct Projection
{
    std::uint32_t workloadMask = 0xffffffffu;
    std::uint64_t metricMask = 0;
};

/** One generated request: a cell and a projection (-1 = full width). */
struct LoadRequest
{
    std::size_t cell = 0;
    int projection = -1;
};

/** Projections in a seed's pool. */
constexpr std::size_t kProjectionPool = 64;

/** The protocol line of (cell, projection). */
inline std::string
requestLine(const Cell &cell, const Projection *proj)
{
    bds::RequestRecord rec;
    rec.scale = bds::serveScaleIndex("quick");
    rec.seed = cell.seed;
    rec.flags = cell.sampled ? bds::kServeFlagSampled : 0u;
    if (proj) {
        rec.workloadMask = proj->workloadMask;
        rec.metricMask = proj->metricMask;
    }
    return bds::formatRequestLine(rec);
}

/** Seeded request stream of one client connection. */
class LoadGenerator
{
  public:
    /**
     * @param seed Workload seed.
     * @param connection Connection index; selects the PCG32 stream.
     * @param cells Number of cells (Zipf ranks).
     */
    LoadGenerator(std::uint64_t seed, unsigned connection,
                  std::size_t cells)
        : rng_(seed, 2 * static_cast<std::uint64_t>(connection) + 3),
          zipf_(cells, 1.0)
    {
    }

    LoadRequest
    next()
    {
        LoadRequest r;
        r.cell = zipf_.sample(rng_);
        if (rng_.nextBounded(3) == 0)
            r.projection = static_cast<int>(
                rng_.nextBounded(kProjectionPool));
        return r;
    }

  private:
    bds::Pcg32 rng_;
    bds::ZipfSampler zipf_;
};

/**
 * The projection pool of a seed: random non-empty strict workload
 * subsets and random non-empty metric subsets.
 */
inline std::vector<Projection>
projectionPool(std::uint64_t seed)
{
    bds::Pcg32 rng(seed, 1);
    const std::uint64_t all_metrics =
        (std::uint64_t{1} << bds::kNumMetrics) - 1;
    std::vector<Projection> pool(kProjectionPool);
    for (Projection &p : pool) {
        do
            p.workloadMask = rng.next();
        while (p.workloadMask == 0 || p.workloadMask == 0xffffffffu);
        do
            p.metricMask = rng.next64() & all_metrics;
        while (p.metricMask == 0);
    }
    return pool;
}

/** CPUs this process may run on (what `nproc` prints). */
inline unsigned
nprocAvailable()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

/** `requested` workers or connections, never more than nproc. */
inline unsigned
clampToNproc(unsigned requested)
{
    return std::max(1u, std::min(requested, nprocAvailable()));
}

/** Median of a non-empty sample. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Nearest-rank `q` quantile (0 < q < 1) that refuses to report a
 * tail with fewer than ten samples beyond it: p99 needs at least
 * 1000 samples.
 */
inline double
tailPercentile(std::vector<double> v, double q)
{
    if (!(q > 0.0 && q < 1.0))
        throw std::invalid_argument("quantile must be in (0, 1)");
    const std::size_t n = v.size();
    const double rank = std::ceil(q * static_cast<double>(n));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (n == 0 || n - 1 - idx < 10)
        throw std::invalid_argument(
            "percentile needs at least 10 samples beyond it, have "
            + std::to_string(n == 0 ? 0 : n - 1 - idx) + " of "
            + std::to_string(n));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx),
                     v.end());
    return v[idx];
}

/**
 * The p99 when the sample has at least 1000 values; otherwise the
 * highest nearest-rank quantile that still has ten samples beyond it.
 * `*quantile` receives the quantile reported.
 */
inline double
p99OrTail(std::vector<double> v, double *quantile)
{
    const std::size_t n = v.size();
    if (n >= 1000) {
        *quantile = 0.99;
        return tailPercentile(std::move(v), 0.99);
    }
    if (n < 11)
        throw std::invalid_argument(
            "a tail needs at least 11 samples, have " + std::to_string(n));
    const std::size_t idx = n - 11;
    *quantile = static_cast<double>(idx + 1) / static_cast<double>(n);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx),
                     v.end());
    return v[idx];
}

} // namespace ledger

#endif // LEDGER_LOADGEN_H
