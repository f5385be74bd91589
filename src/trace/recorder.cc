#include "trace/recorder.h"

#include "ckpt/state.h"
#include "common/log.h"
#include "fault/error.h"

namespace bds {

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

namespace {

/** Longest LEB128 encoding of a u64. */
constexpr std::size_t kMaxVarintBytes = 10;

/**
 * Write `v` at `p` as an unsigned LEB128 varint (7 bits per byte,
 * low group first, high bit = more follows); returns the byte after
 * it. The caller provides kMaxVarintBytes of room.
 */
char *
putVarint(char *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<char>(v | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<char>(v);
    return p;
}

/**
 * Read a putVarint() varint from [p, end) into *v and advance p past
 * it; returns null, or what is wrong with the bytes. Only the
 * canonical encoding is accepted, so every value has exactly one byte
 * string and a decoded slice re-encodes to the bytes it came from.
 */
const char *
getVarint(const char *&p, const char *end, std::uint64_t *v)
{
    // One-byte values (small deltas) take no loop.
    if (p != end && static_cast<std::uint8_t>(*p) < 0x80) {
        *v = static_cast<std::uint8_t>(*p++);
        return nullptr;
    }
    std::uint64_t out = 0;
    for (unsigned shift = 0;; shift += 7) {
        if (p == end)
            return "truncated varint";
        const auto b = static_cast<std::uint8_t>(*p++);
        if (shift == 63 && b > 1)
            return "varint over 64 bits";
        out |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0) {
            if (b == 0 && shift != 0)
                return "overlong varint";
            *v = out;
            return nullptr;
        }
    }
}

/** Zigzag map of a two's-complement delta: small magnitudes stay small. */
std::uint64_t
zigzag(std::uint64_t delta)
{
    return (delta << 1) ^ (0 - (delta >> 63));
}

/** Inverse of zigzag(). */
std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (0 - (z & 1));
}

/** Slice-encoding header bits (TraceRecorder::encode()). */
constexpr unsigned kDmaClass = 6;
constexpr unsigned kModeBit = 1u << 3;
constexpr unsigned kTakenBit = 1u << 4;
constexpr unsigned kNewInsnBit = 1u << 5;
constexpr unsigned kDependsBit = 1u << 6;
constexpr unsigned kEscapeBit = 1u << 7;

/** Delta history lanes: one per core, then the DMA fills'. */
constexpr std::size_t kDmaLane = 256;

bool
isMemory(unsigned cls)
{
    return cls == static_cast<unsigned>(OpClass::Load)
        || cls == static_cast<unsigned>(OpClass::Store);
}

/** Append the zigzag-varint of `v - prev` and make `v` the new prev. */
char *
putDelta(char *p, std::uint64_t v, std::uint64_t &prev)
{
    p = putVarint(p, zigzag(v - prev));
    prev = v;
    return p;
}

} // namespace

std::string
TraceRecorder::encode() const
{
    std::string out;
    out.reserve(entries_.size() * 5);
    std::uint64_t ip[kDmaLane + 1] = {};
    std::uint64_t addr[kDmaLane + 1] = {};
    unsigned core = 0;
    for (const Entry &e : entries_) {
        char buf[1 + 3 * kMaxVarintBytes];
        char *p = buf + 1;
        if (e.flags & 8u) {
            buf[0] = static_cast<char>(kDmaClass);
            p = putDelta(p, e.ip, ip[kDmaLane]);
            p = putDelta(p, e.addr, addr[kDmaLane]);
        } else {
            unsigned head = e.cls | (e.mode ? kModeBit : 0)
                | (e.flags & 1u ? kTakenBit : 0)
                | (e.flags & 2u ? kNewInsnBit : 0)
                | (e.flags & 4u ? kDependsBit : 0);
            const bool explicit_addr = !isMemory(e.cls) && e.addr != 0;
            if (e.core != core || explicit_addr) {
                head |= kEscapeBit;
                core = e.core;
                p = putVarint(p, std::uint64_t(core) << 1 | explicit_addr);
            }
            buf[0] = static_cast<char>(head);
            p = putDelta(p, e.ip, ip[core]);
            if (isMemory(e.cls) || explicit_addr)
                p = putDelta(p, e.addr, addr[core]);
        }
        out.append(buf, static_cast<std::size_t>(p - buf));
    }
    return out;
}

std::size_t
TraceRecorder::replayEncoded(
    std::string_view bytes, unsigned numCores, const std::string &what,
    OpSink &sink,
    const std::function<void(std::uint64_t, std::uint64_t)> &dma)
{
    std::uint64_t ip[kDmaLane + 1] = {};
    std::uint64_t addr[kDmaLane + 1] = {};
    unsigned core = 0;
    const char *p = bytes.data();
    const char *const end = p + bytes.size();
    std::size_t n = 0;
    auto corrupt = [&](const char *why) {
        BDS_RAISE(ErrorCode::Io,
                  what << ": corrupt trace event " << n << " (" << why
                       << ")");
    };
    auto varint = [&]() {
        std::uint64_t v = 0;
        if (const char *why = getVarint(p, end, &v))
            corrupt(why);
        return v;
    };
    auto delta = [&](std::uint64_t &prev) {
        prev += unzigzag(varint());
        return prev;
    };
    for (; p != end; ++n) {
        const unsigned head = static_cast<unsigned char>(*p++);
        const unsigned cls = head & 7u;
        if (cls == kDmaClass) {
            if (head != kDmaClass)
                corrupt("undefined bits on a DMA fill");
            const std::uint64_t at = delta(ip[kDmaLane]);
            const std::uint64_t size = delta(addr[kDmaLane]);
            if (dma)
                dma(at, size);
            continue;
        }
        if (cls > static_cast<unsigned>(OpClass::SseAlu))
            corrupt("undefined op class");
        bool explicit_addr = false;
        if (head & kEscapeBit) {
            const std::uint64_t esc = varint();
            explicit_addr = (esc & 1) != 0;
            if (esc >> 1 >= numCores)
                corrupt("core out of range");
            if ((esc >> 1 == core && !explicit_addr)
                || (explicit_addr && isMemory(cls)))
                corrupt("redundant core escape");
            core = static_cast<unsigned>(esc >> 1);
        }
        MicroOp op;
        op.cls = static_cast<OpClass>(cls);
        op.mode = head & kModeBit ? Mode::Kernel : Mode::User;
        op.taken = (head & kTakenBit) != 0;
        op.newInstruction = (head & kNewInsnBit) != 0;
        op.dependsOnPrevLoad = (head & kDependsBit) != 0;
        op.ip = delta(ip[core]);
        if (isMemory(cls) || explicit_addr) {
            op.addr = delta(addr[core]);
            if (explicit_addr && op.addr == 0)
                corrupt("redundant zero addr");
        }
        sink.consume(core, op);
    }
    return n;
}

TraceRecorder
TraceRecorder::decode(std::string_view bytes, unsigned numCores,
                      const std::string &what)
{
    TraceRecorder rec;
    replayEncoded(bytes, numCores, what, rec,
                  [&](std::uint64_t addr, std::uint64_t size) {
                      rec.recordDma(addr, size);
                  });
    return rec;
}

} // namespace bds
