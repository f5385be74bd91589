#include "trace/recorder.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/log.h"

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

void
TraceRecorder::save(std::ostream &os) const
{
    os.write(kMagic, 8);
    std::uint32_t version = kVersion;
    os.write(reinterpret_cast<const char *>(&version), sizeof(version));
    std::uint64_t count = entries_.size();
    os.write(reinterpret_cast<const char *>(&count), sizeof(count));
    for (const Entry &e : entries_) {
        os.write(reinterpret_cast<const char *>(&e.ip), sizeof(e.ip));
        os.write(reinterpret_cast<const char *>(&e.addr),
                 sizeof(e.addr));
        os.put(static_cast<char>(e.core));
        os.put(static_cast<char>(e.cls));
        os.put(static_cast<char>(e.mode));
        os.put(static_cast<char>(e.flags));
    }
    if (!os)
        BDS_FATAL("trace write failed");
}

TraceRecorder
TraceRecorder::load(std::istream &is)
{
    char magic[8];
    is.read(magic, 8);
    if (!is || std::string(magic, 8) != std::string(kMagic, 8))
        BDS_FATAL("not a bds trace file");
    std::uint32_t version = 0;
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (version != kVersion)
        BDS_FATAL("unsupported trace version " << version);
    std::uint64_t count = 0;
    is.read(reinterpret_cast<char *>(&count), sizeof(count));
    if (!is)
        BDS_FATAL("truncated trace header");

    // Entries are 20 bytes on disk. A seekable stream lets us check
    // the payload against the header count up front, before trusting
    // `count` for the reserve — a bogus header must not OOM us, and
    // both truncation and trailing garbage are rejected.
    constexpr std::uint64_t kEntryBytes = 20;
    std::istream::pos_type body = is.tellg();
    const bool seekable = body != std::istream::pos_type(-1);
    if (seekable) {
        is.seekg(0, std::ios::end);
        std::uint64_t remaining =
            static_cast<std::uint64_t>(is.tellg() - body);
        is.seekg(body);
        if (count > remaining / kEntryBytes)
            BDS_FATAL("truncated trace: header promises " << count
                      << " entries but only " << remaining
                      << " payload bytes remain");
        if (remaining != count * kEntryBytes)
            BDS_FATAL("oversized trace: "
                      << remaining - count * kEntryBytes
                      << " trailing bytes after " << count
                      << " entries");
    }

    // A non-seekable stream has not vouched for `count`: reserve at
    // most a bounded chunk and let the vector grow as entries arrive.
    constexpr std::uint64_t kUncheckedReserve = 1 << 16;
    TraceRecorder rec;
    rec.entries_.reserve(static_cast<std::size_t>(
        seekable ? count : std::min(count, kUncheckedReserve)));
    for (std::uint64_t i = 0; i < count; ++i) {
        Entry e;
        is.read(reinterpret_cast<char *>(&e.ip), sizeof(e.ip));
        is.read(reinterpret_cast<char *>(&e.addr), sizeof(e.addr));
        int core = is.get(), cls = is.get(), mode = is.get(),
            flags = is.get();
        if (!is || core < 0)
            BDS_FATAL("truncated trace at entry " << i);
        e.core = static_cast<std::uint8_t>(core);
        e.cls = static_cast<std::uint8_t>(cls);
        e.mode = static_cast<std::uint8_t>(mode);
        e.flags = static_cast<std::uint8_t>(flags);
        if (e.cls > static_cast<std::uint8_t>(OpClass::SseAlu)
            || e.mode > static_cast<std::uint8_t>(Mode::Kernel)
            || e.flags > 15)
            BDS_FATAL("corrupt trace entry " << i);
        rec.entries_.push_back(e);
    }
    // Non-seekable streams reach here without the up-front size
    // check; trailing bytes mean the writer and header disagree.
    if (is.peek() != std::char_traits<char>::eof())
        BDS_FATAL("oversized trace: data past the last entry");
    return rec;
}

} // namespace bds
