#include "trace/recorder.h"

#include <istream>
#include <iterator>
#include <ostream>

#include "ckpt/state.h"
#include "common/log.h"
#include "fault/error.h"

namespace bds {

namespace {

constexpr char kMagic[9] = "BDSTRACE";
constexpr std::uint32_t kVersion = 1;

} // namespace

void
TraceRecorder::consume(unsigned core, const MicroOp &op)
{
    if (core > 255)
        BDS_FATAL("trace format supports up to 256 cores");
    Entry e;
    e.ip = op.ip;
    e.addr = op.addr;
    e.core = static_cast<std::uint8_t>(core);
    e.cls = static_cast<std::uint8_t>(op.cls);
    e.mode = static_cast<std::uint8_t>(op.mode);
    e.flags = static_cast<std::uint8_t>(
        (op.taken ? 1u : 0u) | (op.newInstruction ? 2u : 0u)
        | (op.dependsOnPrevLoad ? 4u : 0u));
    entries_.push_back(e);
    if (tee_)
        tee_->consume(core, op);
}

void
TraceRecorder::recordDma(std::uint64_t addr, std::uint64_t bytes)
{
    Entry e{};
    e.ip = addr;
    e.addr = bytes;
    e.flags = 8u;
    entries_.push_back(e);
}

void
TraceRecorder::replay(
    OpSink &sink,
    const std::function<void(std::uint64_t, std::uint64_t)> &dma) const
{
    for (const Entry &e : entries_) {
        if (e.flags & 8u) {
            if (dma)
                dma(e.ip, e.addr);
            continue;
        }
        MicroOp op;
        op.ip = e.ip;
        op.addr = e.addr;
        op.cls = static_cast<OpClass>(e.cls);
        op.mode = static_cast<Mode>(e.mode);
        op.taken = (e.flags & 1u) != 0;
        op.newInstruction = (e.flags & 2u) != 0;
        op.dependsOnPrevLoad = (e.flags & 4u) != 0;
        sink.consume(e.core, op);
    }
}

std::string
TraceRecorder::encode() const
{
    std::string out(entries_.size() * kEventBytes, '\0');
    char *p = out.data();
    for (const Entry &e : entries_) {
        storeLe64(p, e.ip);
        storeLe64(p + 8, e.addr);
        p[16] = static_cast<char>(e.core);
        p[17] = static_cast<char>(e.cls);
        p[18] = static_cast<char>(e.mode);
        p[19] = static_cast<char>(e.flags);
        p += kEventBytes;
    }
    return out;
}

TraceRecorder
TraceRecorder::decode(std::string_view bytes, unsigned numCores,
                      const std::string &what)
{
    if (bytes.size() % kEventBytes != 0)
        BDS_RAISE(ErrorCode::Io,
                  what << ": " << bytes.size()
                       << " event bytes are not a whole number of "
                       << kEventBytes << "-byte events");
    TraceRecorder rec;
    rec.entries_.resize(bytes.size() / kEventBytes);
    const char *p = bytes.data();
    for (std::size_t i = 0; i < rec.entries_.size(); ++i) {
        Entry &e = rec.entries_[i];
        e.ip = loadLe64(p);
        e.addr = loadLe64(p + 8);
        e.core = static_cast<std::uint8_t>(p[16]);
        e.cls = static_cast<std::uint8_t>(p[17]);
        e.mode = static_cast<std::uint8_t>(p[18]);
        e.flags = static_cast<std::uint8_t>(p[19]);
        if (e.core >= numCores
            || e.cls > static_cast<std::uint8_t>(OpClass::SseAlu)
            || e.mode > static_cast<std::uint8_t>(Mode::Kernel)
            || e.flags > 15)
            BDS_RAISE(ErrorCode::Io, what << ": corrupt trace event " << i);
        p += kEventBytes;
    }
    return rec;
}

void
TraceRecorder::save(std::ostream &os) const
{
    os.write(kMagic, 8);
    std::uint32_t version = kVersion;
    os.write(reinterpret_cast<const char *>(&version), sizeof(version));
    std::uint64_t count = entries_.size();
    os.write(reinterpret_cast<const char *>(&count), sizeof(count));
    const std::string events = encode();
    os.write(events.data(), static_cast<std::streamsize>(events.size()));
    if (!os)
        BDS_FATAL("trace write failed");
}

TraceRecorder
TraceRecorder::load(std::istream &is)
{
    char magic[8];
    is.read(magic, 8);
    if (!is || std::string(magic, 8) != std::string(kMagic, 8))
        BDS_RAISE(ErrorCode::Io, "not a bds trace file");
    std::uint32_t version = 0;
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (version != kVersion)
        BDS_RAISE(ErrorCode::Io, "unsupported trace version " << version);
    std::uint64_t count = 0;
    is.read(reinterpret_cast<char *>(&count), sizeof(count));
    if (!is)
        BDS_RAISE(ErrorCode::Io, "truncated trace header");

    // The body is whatever the stream holds, so its size — never the
    // header's count — bounds every allocation; the count must then
    // match it exactly (truncation and trailing garbage both fail).
    const std::string body{std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>()};
    if (count > body.size() / kEventBytes)
        BDS_RAISE(ErrorCode::Io,
                  "truncated trace: header promises "
                      << count << " entries but only " << body.size()
                      << " payload bytes remain");
    if (body.size() != count * kEventBytes)
        BDS_RAISE(ErrorCode::Io,
                  "oversized trace: " << body.size() - count * kEventBytes
                                      << " trailing bytes after "
                                      << count << " entries");
    return decode(body, 256, "trace");
}

} // namespace bds
