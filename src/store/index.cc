#include "store/index.h"

#include <algorithm>

#include "fault/error.h"
#include "store/record.h"

namespace bds {

/** Version of the index file layout ("BDSINDEX 1"). */
constexpr unsigned kIndexVersion = 1;

bool
StoreIndex::load(const std::string &path)
{
    entries_.clear();
    nextSeq_ = 1;

    std::string bytes;
    if (!readFile(path, &bytes))
        return false;

    std::map<std::string, IndexedEntry> parsed;
    std::uint64_t maxSeq = 0;
    try {
        RecordCursor in(bytes, path);
        in.header("BDSINDEX", kIndexVersion);
        const std::uint64_t count = in.number("entries");
        for (std::uint64_t i = 0; i < count; ++i) {
            // "<seq> <bytes> <name>"
            const std::string_view l = in.line();
            const std::size_t a = l.find(' ');
            const std::size_t b = l.find(' ', a + 1); // npos if a is
            IndexedEntry e;
            if (b == std::string_view::npos
                || !parseDecimal(l.substr(0, a), &e.seq)
                || !parseDecimal(l.substr(a + 1, b - a - 1), &e.bytes)
                || b + 1 == l.size())
                return false;
            e.name = std::string(l.substr(b + 1));
            maxSeq = std::max(maxSeq, e.seq);
            parsed[e.name] = std::move(e);
        }
        in.end();
    } catch (const Error &) {
        return false;
    }

    entries_ = std::move(parsed);
    nextSeq_ = maxSeq + 1;
    return true;
}

bool
StoreIndex::save(const std::string &path) const
{
    std::string out;
    appendField(out, "BDSINDEX", kIndexVersion);
    appendField(out, "entries", entries_.size());
    for (const auto &kv : entries_)
        out += std::to_string(kv.second.seq) + ' '
            + std::to_string(kv.second.bytes) + ' ' + kv.first + '\n';
    out += "END\n";
    return replaceFile(path, out);
}

namespace {

/** Scan sorted oldest-mtime first, name-tiebroken for determinism. */
std::vector<ScannedEntry>
mtimeOrder(const std::vector<ScannedEntry> &scan)
{
    std::vector<ScannedEntry> sorted = scan;
    std::sort(sorted.begin(), sorted.end(),
              [](const ScannedEntry &a, const ScannedEntry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.name < b.name;
              });
    return sorted;
}

} // namespace

void
StoreIndex::rebuild(const std::vector<ScannedEntry> &scan)
{
    entries_.clear();
    nextSeq_ = 1;
    for (const ScannedEntry &s : mtimeOrder(scan)) {
        IndexedEntry e;
        e.name = s.name;
        e.bytes = s.bytes;
        e.seq = nextSeq_++;
        entries_[e.name] = std::move(e);
    }
}

void
StoreIndex::reconcile(const std::vector<ScannedEntry> &scan)
{
    // Drop indexed entries whose file is gone.
    std::map<std::string, const ScannedEntry *> present;
    for (const ScannedEntry &s : scan)
        present[s.name] = &s;
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (present.find(it->first) == present.end())
            it = entries_.erase(it);
        else
            ++it;
    }

    // Refresh sizes; adopt unknown files in mtime order so their
    // relative recency is preserved.
    for (const ScannedEntry &s : mtimeOrder(scan)) {
        auto it = entries_.find(s.name);
        if (it != entries_.end()) {
            it->second.bytes = s.bytes;
            continue;
        }
        IndexedEntry e;
        e.name = s.name;
        e.bytes = s.bytes;
        e.seq = nextSeq_++;
        entries_[e.name] = std::move(e);
    }
}

void
StoreIndex::touch(const std::string &name, std::uint64_t bytes)
{
    IndexedEntry &e = entries_[name];
    e.name = name;
    e.bytes = bytes;
    e.seq = nextSeq_++;
}

void
StoreIndex::erase(const std::string &name)
{
    entries_.erase(name);
}

std::uint64_t
StoreIndex::totalBytes() const
{
    std::uint64_t total = 0;
    for (const auto &kv : entries_)
        total += kv.second.bytes;
    return total;
}

std::vector<IndexedEntry>
StoreIndex::lruOrder() const
{
    std::vector<IndexedEntry> order;
    order.reserve(entries_.size());
    for (const auto &kv : entries_)
        order.push_back(kv.second);
    std::sort(order.begin(), order.end(),
              [](const IndexedEntry &a, const IndexedEntry &b) {
                  if (a.seq != b.seq)
                      return a.seq < b.seq;
                  return a.name < b.name;
              });
    return order;
}

} // namespace bds
