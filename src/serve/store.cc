#include "serve/store.h"

#include <condition_variable>
#include <exception>

#include "common/log.h"
#include "fault/error.h"
#include "serve/confighash.h"
#include "store/record.h"

namespace bds {

std::string
writeResultEntry(const ResultEntry &entry)
{
    std::string out;
    appendField(out, "BDSRESULT", kResultStoreVersion);
    appendField(out, "hash", entry.hashHex);
    appendSized(out, "config", entry.canonicalConfig);
    appendField(out, "names", entry.names.size());
    for (const std::string &name : entry.names)
        out += name + '\n';
    appendSized(out, "manifest", entry.manifestJson);
    appendField(out, "csv_sum", toHex64(stateChecksum(entry.csv)));
    appendSized(out, "csv", entry.csv);
    out += "END\n";
    return out;
}

ResultEntry
readResultEntry(std::string_view bytes, const std::string &what)
{
    ResultEntry entry;
    RecordCursor in(bytes, what);
    in.header("BDSRESULT", kResultStoreVersion);
    entry.hashHex = std::string(in.field("hash"));
    if (entry.hashHex.size() != 16)
        BDS_RAISE(ErrorCode::Io, what << ": malformed hash line");
    entry.canonicalConfig = std::string(in.sized("config"));
    const std::uint64_t names = in.number("names");
    for (std::uint64_t i = 0; i < names; ++i)
        entry.names.emplace_back(in.line());
    entry.manifestJson = std::string(in.sized("manifest"));
    const std::string_view declared_sum = in.field("csv_sum");
    if (declared_sum.size() != 16)
        BDS_RAISE(ErrorCode::Io, what << ": malformed csv_sum line");
    const std::string_view csv = in.sized("csv");
    if (toHex64(stateChecksum(csv)) != declared_sum)
        BDS_RAISE(ErrorCode::Io,
                  what << ": csv payload checksum mismatch "
                       << "(corrupt entry)");
    in.end();
    entry.csv = std::string(csv);
    return entry;
}

struct ResultStore::Flight
{
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    ComputedResult result;
    std::exception_ptr error;
};

namespace {

SharedStoreOptions
resultStoreOptions(std::string dir, std::uint64_t maxBytes)
{
    SharedStoreOptions opts;
    opts.dir = std::move(dir);
    opts.suffix = ".result";
    opts.maxBytes = maxBytes;
    return opts;
}

} // namespace

ResultStore::ResultStore(std::string dir, std::uint64_t maxBytes)
    : backend_(resultStoreOptions(std::move(dir), maxBytes))
{
}

std::string
ResultStore::entryName(const std::string &hashHex)
{
    return hashHex + ".result";
}

std::string
ResultStore::entryPath(const std::string &hashHex) const
{
    return backend_.entryPath(entryName(hashHex));
}

bool
ResultStore::load(const std::string &hashHex, ResultEntry *out) const
{
    const std::string path = entryPath(hashHex);
    std::string bytes;
    if (!backend_.read(entryName(hashHex), &bytes))
        return false;
    ResultEntry entry = readResultEntry(bytes, path);
    if (entry.hashHex != hashHex)
        BDS_RAISE(ErrorCode::Io,
                  path << ": entry is keyed to " << entry.hashHex
                       << ", expected " << hashHex);
    *out = std::move(entry);
    return true;
}

bool
ResultStore::store(const ResultEntry &entry) const
{
    return backend_.publish(entryName(entry.hashHex),
                            writeResultEntry(entry));
}

bool
ResultStore::tryLoad(const std::string &hashHex, ResultEntry *out) const
{
    try {
        return load(hashHex, out);
    } catch (const std::exception &e) {
        // Corrupt/truncated entry: report, recompute, replace.
        // std::exception, not just Error, so no corruption mode can
        // dodge the recompute path.
        warn(std::string("result store: dropping corrupt entry: ")
             + e.what());
        return false;
    }
}

ComputedResult
ResultStore::getOrCompute(const std::string &hashHex,
                          const std::function<ComputedResult()> &compute,
                          bool *hit)
{
    *hit = false;

    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = inflight_.find(hashHex);
        if (it != inflight_.end()) {
            flight = it->second;
        } else {
            flight = std::make_shared<Flight>();
            inflight_[hashHex] = flight;
            leader = true;
        }
    }

    if (!leader) {
        // Someone else is computing this cell right now: wait for
        // their result instead of duplicating a whole sweep. An
        // uncacheable (quarantined) result is not a hit — the
        // follower inherits its quarantine list and must report it.
        std::unique_lock<std::mutex> lock(flight->mutex);
        flight->cv.wait(lock, [&] { return flight->done; });
        if (flight->error)
            std::rethrow_exception(flight->error);
        *hit = flight->result.cacheable;
        return flight->result;
    }

    ComputedResult result;
    std::exception_ptr error;
    try {
        ResultEntry cached;
        bool have = tryLoad(hashHex, &cached);
        if (!have) {
            // Cross-process single-flight: take (or wait out) the
            // entry's lease so only one daemon computes this cell.
            // A waiter whose wait ends with the entry on disk — or a
            // leader whose lease arrived after the previous holder
            // published — re-reads instead of recomputing. A null
            // lease without entryAppeared means the store is down or
            // the lease machinery failed: compute uncoordinated,
            // correctness over deduplication.
            FlightTicket ticket =
                backend_.singleFlight(entryName(hashHex));
            have = tryLoad(hashHex, &cached);
            if (!have) {
                result = compute();
                if (result.cacheable)
                    store(result.entry);
            }
        }
        if (have) {
            *hit = true;
            result.entry = std::move(cached);
        }
    } catch (...) {
        error = std::current_exception();
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        inflight_.erase(hashHex);
    }
    {
        std::lock_guard<std::mutex> lock(flight->mutex);
        flight->result = result;
        flight->error = error;
        flight->done = true;
    }
    flight->cv.notify_all();
    if (error)
        std::rethrow_exception(error);
    return result;
}

} // namespace bds
