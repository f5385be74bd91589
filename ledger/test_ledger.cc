/**
 * @file
 * The ledger's own tests: the seeded load generator, the percentile
 * helper, the nproc clamp and the span arithmetic.
 *
 *   cmake --build .bench_build --target ledger_tests
 *   .bench_build/ledger_tests        # exit 0 = all passed
 */

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "loadgen.h"
#include "spans.h"

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

/** The byte sequence a connection would send for `n` requests. */
std::string
sequence(std::uint64_t seed, unsigned conn, std::size_t n)
{
    const auto cells = ledger::serveCells(seed);
    const auto pool = ledger::projectionPool(seed);
    ledger::LoadGenerator gen(seed, conn, cells.size());
    std::string bytes;
    for (std::size_t i = 0; i < n; ++i) {
        const ledger::LoadRequest r = gen.next();
        bytes += ledger::requestLine(
                     cells[r.cell],
                     r.projection < 0
                         ? nullptr
                         : &pool[static_cast<std::size_t>(r.projection)])
            + "\n";
    }
    return bytes;
}

void
testSameSeedSameBytes()
{
    check(sequence(42, 0, 2000) == sequence(42, 0, 2000),
          "same seed and connection give the same request bytes");
    check(sequence(42, 0, 2000) != sequence(43, 0, 2000),
          "another seed gives another sequence");
    check(sequence(42, 0, 2000) != sequence(42, 1, 2000),
          "connections draw from distinct streams");
}

void
testShares()
{
    const std::size_t n = 200000;
    const auto cells = ledger::serveCells(7);
    ledger::LoadGenerator gen(7, 0, cells.size());
    std::vector<double> per_cell(cells.size(), 0.0);
    double projected = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const ledger::LoadRequest r = gen.next();
        per_cell[r.cell] += 1.0;
        projected += r.projection >= 0 ? 1.0 : 0.0;
    }
    // Zipf s = 1 over four ranks: 1/H4 * (1, 1/2, 1/3, 1/4).
    const double h4 = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const double want = 1.0 / (static_cast<double>(c + 1) * h4);
        check(std::fabs(per_cell[c] / n - want) < 0.01,
              "cell " + std::to_string(c) + " share "
                  + std::to_string(per_cell[c] / n) + " vs "
                  + std::to_string(want));
    }
    check(std::fabs(projected / n - 1.0 / 3.0) < 0.01,
          "projected share " + std::to_string(projected / n));

    const auto pool = ledger::projectionPool(7);
    check(pool.size() == ledger::kProjectionPool, "pool size");
    for (const auto &p : pool)
        check(p.workloadMask != 0 && p.workloadMask != 0xffffffffu
                  && p.metricMask != 0
                  && p.metricMask < (std::uint64_t{1} << 45),
              "projection masks are strict non-empty subsets");
}

void
testPercentile()
{
    std::vector<double> v(1000);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i + 1);
    check(ledger::tailPercentile(v, 0.99) == 990.0,
          "p99 of 1..1000 is 990 with ten samples beyond");
    bool threw = false;
    try {
        ledger::tailPercentile(std::vector<double>(v.begin(), v.end() - 1),
                               0.99);
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    check(threw, "p99 of 999 samples is refused (nine beyond)");
    threw = false;
    try {
        ledger::tailPercentile({}, 0.5);
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    check(threw, "an empty sample is refused");
    check(ledger::tailPercentile(std::vector<double>(v.begin(),
                                                     v.begin() + 100),
                                 0.9)
              == 90.0,
          "p90 of 100 samples");
    check(ledger::median({3.0, 1.0, 2.0, 4.0}) == 2.5, "even median");

    double q = 0.0;
    check(ledger::p99OrTail(v, &q) == 990.0 && q == 0.99,
          "p99OrTail is the p99 from 1000 samples on");
    check(ledger::p99OrTail(std::vector<double>(v.begin(),
                                                v.begin() + 500),
                            &q)
                  == 490.0
              && q == 0.98,
          "p99OrTail keeps ten samples beyond below 1000 samples");
    threw = false;
    try {
        ledger::p99OrTail(std::vector<double>(10, 1.0), &q);
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    check(threw, "p99OrTail refuses fewer than 11 samples");
}

void
testNproc()
{
    const unsigned n = ledger::nprocAvailable();
    check(n >= 1, "nproc is positive");
    check(ledger::clampToNproc(4) <= n && ledger::clampToNproc(4) >= 1,
          "4 workers never exceed nproc");
    check(ledger::clampToNproc(n + 7) == n, "requests above nproc clamp");
    check(ledger::clampToNproc(0) == 1, "at least one worker");
}

void
testSpans()
{
    using ledger::Span;
    auto mk = [](const char *name, double a, double b, std::int64_t p) {
        Span s;
        s.name = name;
        s.start = a;
        s.end = b;
        s.parent = p;
        return s;
    };
    // root [0,10); two overlapping children on other threads.
    std::vector<Span> spans = {mk("pass", 0, 10, -1),
                               mk("workload", 1, 5, 0),
                               mk("workload", 3, 7, 0),
                               mk("leaf", 1, 2, 1), mk("leaf", 6, 7, 2)};
    const auto self = ledger::selfTimes(spans);
    check(self[0] == 4.0, "root self time excludes the union of kids");
    check(self[1] == 3.0 && self[2] == 3.0, "child self times");
    check(ledger::unattributedShare(spans, 0) == 0.8,
          "unattributed share counts leaf coverage only");
    check(ledger::unionLength({{0, 1}, {0.5, 2}, {3, 4}}) == 3.0,
          "interval union");

    ledger::SpanLog log;
    {
        ledger::Scope a(log, "a", -1, 1);
        ledger::Scope b(log, "b", a.index(), 1);
    }
    const auto got = log.spans();
    check(got.size() == 2 && got[1].parent == 0
              && got[0].end >= got[1].end && got[1].end >= got[1].start,
          "scopes record nested spans");
}

} // namespace

int
main()
{
    testSameSeedSameBytes();
    testShares();
    testPercentile();
    testNproc();
    testSpans();
    if (failures) {
        std::cerr << failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "ledger_tests: all passed\n";
    return 0;
}
