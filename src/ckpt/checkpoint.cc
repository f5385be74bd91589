#include "ckpt/checkpoint.h"

#include <limits>
#include <sstream>
#include <string_view>

#include "ckpt/state.h"
#include "fault/error.h"
#include "obs/metrics.h"
#include "serve/confighash.h"
#include "store/record.h"

namespace bds {

namespace {

/** Filename-safe rendering of a workload name. */
std::string
sanitize(const std::string &name)
{
    std::string out;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c == '-' || c == '_'
            || c == '.';
        out.push_back(ok ? c : '-');
    }
    return out;
}

/** The filename stem shared by one (workload, node) stream's files. */
std::string
streamStem(const CheckpointKey &key)
{
    std::ostringstream name;
    name << key.configHash << '_' << key.machineSlug << '_'
         << sanitize(key.workload) << "_n" << key.node;
    return name.str();
}

} // namespace

CkptStats
ckptStats()
{
    CkptStats s;
    s.hits = counters::value(Counter::CkptHits);
    s.misses = counters::value(Counter::CkptMisses);
    s.writes = counters::value(Counter::CkptWrites);
    s.fallbacks = counters::value(Counter::CkptFallbacks);
    s.bytesRead = counters::value(Counter::CkptBytesRead);
    s.bytesWritten = counters::value(Counter::CkptBytesWritten);
    s.captureHits = counters::value(Counter::CaptureHits);
    s.captureMisses = counters::value(Counter::CaptureMisses);
    s.captureWrites = counters::value(Counter::CaptureWrites);
    s.captureFallbacks = counters::value(Counter::CaptureFallbacks);
    return s;
}

std::string
writeCheckpoint(const CheckpointEntry &entry)
{
    std::string out;
    out.reserve(256 + entry.key.machineText.size()
                + entry.key.workload.size() + entry.state.size()
                + entry.ops.size());
    appendField(out, "BDSCKPT", kCheckpointVersion);
    appendField(out, "hash", entry.key.configHash);
    appendField(out, "slug", entry.key.machineSlug);
    appendSized(out, "machine", entry.key.machineText);
    appendSized(out, "workload", entry.key.workload);
    appendField(out, "node", entry.key.node);
    appendField(out, "interval", entry.interval);
    appendField(out, "state_sum", toHex64(stateChecksum(entry.state)));
    appendSized(out, "state", entry.state);
    appendField(out, "ops_sum", toHex64(stateChecksum(entry.ops)));
    appendSized(out, "ops", entry.ops);
    out += "END\n";
    return out;
}

CheckpointEntry
readCheckpoint(std::string bytes, const std::string &what,
               const CheckpointKey &expected,
               std::uint64_t expectedInterval)
{
    CheckpointEntry entry;
    RecordCursor in(bytes, what);
    in.header("BDSCKPT", kCheckpointVersion);
    entry.key.configHash = std::string(in.field("hash"));
    if (entry.key.configHash.size() != 16)
        BDS_RAISE(ErrorCode::Io, what << ": malformed hash line");
    entry.key.machineSlug = std::string(in.field("slug"));
    entry.key.machineText = std::string(in.sized("machine"));
    entry.key.workload = std::string(in.sized("workload"));
    const std::uint64_t node = in.number("node");
    if (node > std::numeric_limits<unsigned>::max())
        BDS_RAISE(ErrorCode::Io,
                  what << ": node " << node << " out of range");
    entry.key.node = static_cast<unsigned>(node);
    entry.interval = in.number("interval");

    // Both payloads sit behind their own checksum line.
    auto payload = [&](std::string_view name) {
        const std::string sum_key = std::string(name) + "_sum";
        const std::string_view declared = in.field(sum_key);
        if (declared.size() != 16)
            BDS_RAISE(ErrorCode::Io,
                      what << ": malformed " << sum_key << " line");
        const std::string_view bytes = in.sized(name);
        if (toHex64(stateChecksum(bytes)) != declared)
            BDS_RAISE(ErrorCode::Io,
                      what << ": " << name << " payload checksum "
                           << "mismatch (corrupt checkpoint)");
        return bytes;
    };
    const std::string_view state = payload("state");
    const std::string_view ops = payload("ops");
    if (ops.size() % TraceRecorder::kEventBytes != 0)
        BDS_RAISE(ErrorCode::Io,
                  what << ": slice of " << ops.size()
                       << " bytes is not a whole number of events");
    in.end();

    // Key verification: the machine text is the load-bearing guard
    // (equal text implies equal geometry, hence an exactly matching
    // state layout); hash/slug/workload/node/interval mismatches mean
    // the file is not the checkpoint the caller asked for.
    if (entry.key.machineText != expected.machineText
        || entry.key.machineSlug != expected.machineSlug)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  what << ": checkpoint was saved on machine '"
                       << entry.key.machineSlug
                       << "' and cannot restore on '"
                       << expected.machineSlug
                       << "' (geometry mismatch)");
    if (entry.key.configHash != expected.configHash
        || entry.key.workload != expected.workload
        || entry.key.node != expected.node
        || entry.interval != expectedInterval)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  what << ": checkpoint is keyed to config "
                       << entry.key.configHash << "/"
                       << entry.key.workload << "/n" << entry.key.node
                       << "/i" << entry.interval << ", expected "
                       << expected.configHash << "/"
                       << expected.workload << "/n" << expected.node
                       << "/i" << expectedInterval);

    // The slice is copied out; the state then becomes the entry's
    // state in place: slide it to the front of the buffer already
    // read, no second allocation.
    entry.ops = std::string(ops);
    const std::size_t offset =
        static_cast<std::size_t>(state.data() - bytes.data());
    const std::size_t size = state.size();
    bytes.resize(offset + size);
    bytes.erase(0, offset);
    entry.state = std::move(bytes);
    return entry;
}

namespace {

SharedStoreOptions
ckptStoreOptions(std::string dir, std::uint64_t maxBytes)
{
    SharedStoreOptions opts;
    opts.dir = std::move(dir);
    opts.suffix = ".ckpt";
    opts.maxBytes = maxBytes;
    return opts;
}

} // namespace

CheckpointCache::CheckpointCache(std::string dir,
                                 std::uint64_t maxBytes)
    : backend_(ckptStoreOptions(std::move(dir), maxBytes))
{
}

std::string
CheckpointCache::entryName(const CheckpointKey &key,
                           std::uint64_t interval)
{
    return streamStem(key) + "_i" + std::to_string(interval) + ".ckpt";
}

std::string
CheckpointCache::captureName(const CheckpointKey &key)
{
    return streamStem(key) + ".ckpt";
}

std::string
CheckpointCache::path(const CheckpointKey &key,
                      std::uint64_t interval) const
{
    return backend_.entryPath(entryName(key, interval));
}

bool
CheckpointCache::read(const CheckpointKey &key, std::uint64_t interval,
                      CheckpointEntry *entry) const
{
    std::string bytes;
    if (!backend_.read(entryName(key, interval), &bytes))
        return false;
    *entry = readCheckpoint(std::move(bytes), path(key, interval), key,
                            interval);
    return true;
}

bool
CheckpointCache::load(const CheckpointKey &key, std::uint64_t interval,
                      std::string *state) const
{
    CheckpointEntry entry;
    if (!read(key, interval, &entry))
        return false;
    counters::add(Counter::CkptHits);
    counters::add(Counter::CkptBytesRead, entry.state.size());
    *state = std::move(entry.state);
    return true;
}

void
CheckpointCache::store(const CheckpointKey &key, std::uint64_t interval,
                       const std::string &state) const
{
    store(key, interval, state, TraceRecorder());
}

void
CheckpointCache::store(const CheckpointKey &key, std::uint64_t interval,
                       const std::string &state,
                       const TraceRecorder &slice) const
{
    CheckpointEntry entry;
    entry.key = key;
    entry.interval = interval;
    entry.state = state;
    entry.ops = slice.encode();
    // A failed publish flips the backend down (counted + warned);
    // the replay simply stops writing checkpoints until it heals.
    if (!backend_.publish(entryName(key, interval),
                          writeCheckpoint(entry)))
        return;
    const std::uint64_t bytes = entry.state.size() + entry.ops.size();
    counters::add(Counter::CkptWrites);
    counters::add(Counter::CkptBytesWritten, bytes);
}

std::string
CheckpointCache::capturePath(const CheckpointKey &key) const
{
    return backend_.entryPath(captureName(key));
}

bool
CheckpointCache::loadCapture(const CheckpointKey &key,
                             std::string *bytes) const
{
    return backend_.read(captureName(key), bytes);
}

void
CheckpointCache::storeCapture(const CheckpointKey &key,
                              const std::string &bytes) const
{
    if (backend_.publish(captureName(key), bytes))
        counters::add(Counter::CaptureWrites);
}

} // namespace bds
