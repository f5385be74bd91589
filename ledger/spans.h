/**
 * @file
 * In-memory spans for the ledger's traced run.
 *
 * A span is (name, start, end, parent, id): the id is the pass or
 * request it belongs to, the parent the span that caused it. Spans
 * live in memory until the run ends and are written out once, so the
 * traced run pays one steady_clock read and one short critical
 * section per boundary. The spans are recorded from the benchmark's
 * own files, around calls into each layer's public functions.
 *
 * Analysis:
 *  - self time of a span = its duration minus the part of it that
 *    the union of its children covers (children may run on other
 *    threads and overlap each other);
 *  - unattributed share of a root span = the part of its interval in
 *    which no leaf span (a span without children) is open anywhere.
 */

#ifndef LEDGER_SPANS_H
#define LEDGER_SPANS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace ledger {

/** One recorded span; times are seconds since the log's epoch. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = -1.0;         ///< < start while still open
    std::int64_t parent = -1;  ///< index of the causing span, or -1
    std::uint64_t id = 0;      ///< pass or request identifier
};

/** Thread-safe append-only span store. */
class SpanLog
{
  public:
    SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** Seconds since the epoch. */
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /** Open a span now; returns its index. */
    std::int64_t
    open(const std::string &name, std::int64_t parent, std::uint64_t id)
    {
        Span s;
        s.name = name;
        s.parent = parent;
        s.id = id;
        s.start = now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(s));
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    /** Close span `idx` now. */
    void
    close(std::int64_t idx)
    {
        const double t = now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(idx)].end = t;
    }

    /** Append a finished span (client threads buffer their own). */
    void
    add(std::vector<Span> &&batch)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Span &s : batch)
            spans_.push_back(std::move(s));
    }

    /** Snapshot of every span. */
    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(SpanLog &log, const std::string &name, std::int64_t parent,
          std::uint64_t id)
        : log_(log), idx_(log.open(name, parent, id))
    {
    }
    ~Scope() { log_.close(idx_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int64_t index() const { return idx_; }

  private:
    SpanLog &log_;
    std::int64_t idx_;
};

/** Total length of the union of [start, end) intervals. */
inline double
unionLength(std::vector<std::pair<double, double>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0, lo = 0.0, hi = -1.0;
    bool open = false;
    for (const auto &[a, b] : iv) {
        if (b <= a)
            continue;
        if (!open || a > hi) {
            if (open)
                total += hi - lo;
            lo = a;
            hi = b;
            open = true;
        } else {
            hi = std::max(hi, b);
        }
    }
    if (open)
        total += hi - lo;
    return total;
}

/** Self time of every span, parallel to `spans`. */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0) {
            const Span &p = spans[static_cast<std::size_t>(s.parent)];
            kids[static_cast<std::size_t>(s.parent)].emplace_back(
                std::max(s.start, p.start), std::min(s.end, p.end));
        }
    std::vector<double> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[i] = spans[i].end - spans[i].start - unionLength(kids[i]);
    return out;
}

/** Total self time per span name. */
inline std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

/**
 * Share of root span `root`'s interval in which no leaf span inside
 * it is open (0 when the root is empty).
 */
inline double
unattributedShare(const std::vector<Span> &spans, std::size_t root)
{
    std::vector<bool> has_kids(spans.size(), false);
    for (const Span &s : spans)
        if (s.parent >= 0)
            has_kids[static_cast<std::size_t>(s.parent)] = true;
    const Span &r = spans[root];
    const double dur = r.end - r.start;
    if (dur <= 0.0)
        return 0.0;
    std::vector<std::pair<double, double>> leaves;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (i != root && !has_kids[i] && spans[i].start >= r.start
            && spans[i].start < r.end)
            leaves.emplace_back(spans[i].start,
                                std::min(spans[i].end, r.end));
    return 1.0 - unionLength(leaves) / dur;
}

/** Write spans as JSON lines. */
inline void
writeSpans(std::ostream &os, const std::vector<Span> &spans)
{
    for (std::size_t i = 0; i < spans.size(); ++i)
        os << "{\"i\": " << i << ", \"name\": \"" << spans[i].name
           << "\", \"start_s\": " << spans[i].start
           << ", \"end_s\": " << spans[i].end
           << ", \"parent\": " << spans[i].parent
           << ", \"id\": " << spans[i].id << "}\n";
}

} // namespace ledger

#endif // LEDGER_SPANS_H
