#include "obs/metrics.h"

#include <atomic>

#include "obs/trace.h"

namespace bds {

namespace {

/** Constant-initialized: safe to bump from static initializers. */
std::atomic<std::uint64_t> g_values[kNumCounters];

std::atomic<std::uint64_t> &
slot(Counter c)
{
    return g_values[static_cast<std::size_t>(c)];
}

} // namespace

namespace counters {

void
add(Counter c, std::uint64_t n)
{
    if (n == 0)
        return;
    slot(c).fetch_add(n, std::memory_order_relaxed);
    Tracer::global().counter(kCounters[static_cast<std::size_t>(c)].traceName,
                             n);
}

std::uint64_t
value(Counter c)
{
    return slot(c).load(std::memory_order_relaxed);
}

void
reset()
{
    for (std::atomic<std::uint64_t> &v : g_values)
        v.store(0, std::memory_order_relaxed);
}

std::pair<std::string_view, std::string_view>
jsonField(const CounterDef &c)
{
    const std::string_view trace = c.traceName;
    const std::string_view key = c.statsKey;
    const std::string_view group = trace.substr(0, trace.find('.'));
    if (key.size() > group.size() + 1 && key.substr(0, group.size()) == group
        && key[group.size()] == '_')
        return {group, key.substr(group.size() + 1)};
    return {{}, key};
}

} // namespace counters

} // namespace bds
