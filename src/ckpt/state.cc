#include "ckpt/state.h"

#include <cstring>

#include "fault/error.h"

namespace bds {

void
StateSink::section(const char (&tag)[5])
{
    buf_.append(tag, 4);
}

void
StateSink::u32(std::uint32_t v)
{
    char b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    buf_.append(b, 4);
}

void
StateSink::u64(std::uint64_t v)
{
    char b[8];
    storeLe64(b, v);
    buf_.append(b, 8);
}

void
StateSink::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
StateSink::str(const std::string &s)
{
    u64(s.size());
    buf_.append(s);
}

RecordWriter
StateSink::records(std::uint64_t count, std::size_t stride)
{
    const std::size_t at = buf_.size();
    buf_.resize(at + static_cast<std::size_t>(count) * stride);
    return RecordWriter(buf_.data() + at);
}

StateSource::StateSource(const std::string &payload, std::string what)
    : payload_(payload), what_(std::move(what))
{
}

const char *
StateSource::take(std::size_t n, const char *label)
{
    if (n > payload_.size() - pos_)
        BDS_RAISE(ErrorCode::Io,
                  what_ << ": state payload truncated reading " << label
                        << " at offset " << pos_ << " (need " << n
                        << " bytes, have " << payload_.size() - pos_
                        << ")");
    const char *p = payload_.data() + pos_;
    pos_ += n;
    return p;
}

void
StateSource::section(const char (&tag)[5])
{
    const char *p = take(4, "section tag");
    if (std::memcmp(p, tag, 4) != 0)
        BDS_RAISE(ErrorCode::Io,
                  what_ << ": expected state section '" << tag
                        << "', found '" << std::string(p, 4)
                        << "' — payload does not match the schema");
}

std::uint8_t
StateSource::u8()
{
    return static_cast<std::uint8_t>(*take(1, "u8"));
}

std::uint32_t
StateSource::u32()
{
    const char *p = take(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

std::uint64_t
StateSource::u64()
{
    return loadLe64(take(8, "u64"));
}

double
StateSource::f64()
{
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
StateSource::str()
{
    std::uint64_t n = u64();
    if (n > payload_.size() - pos_)
        BDS_RAISE(ErrorCode::Io,
                  what_ << ": string field declares implausible size "
                        << n << " (corrupt payload)");
    const char *p = take(static_cast<std::size_t>(n), "string");
    return std::string(p, static_cast<std::size_t>(n));
}

RecordReader
StateSource::records(std::uint64_t count, std::size_t stride,
                     const char *label)
{
    if (count > remaining() / stride)
        BDS_RAISE(ErrorCode::Io,
                  what_ << ": state payload declares " << count << " "
                        << label << " records of " << stride
                        << " bytes at offset " << pos_ << " but only "
                        << remaining() << " bytes remain"
                        << " (truncated or corrupt payload)");
    return RecordReader(
        take(static_cast<std::size_t>(count) * stride, label));
}

void
StateSource::check(const char *field, std::uint64_t expected)
{
    std::uint64_t got = u64();
    if (got != expected)
        BDS_RAISE(ErrorCode::Io,
                  what_ << ": state payload was saved with " << field
                        << "=" << got << " but the restoring structure"
                        << " has " << field << "=" << expected);
}

void
StateSource::finish() const
{
    if (pos_ != payload_.size())
        BDS_RAISE(ErrorCode::Io,
                  what_ << ": " << payload_.size() - pos_
                        << " trailing bytes after the last state field"
                        << " (payload does not match the schema)");
}

} // namespace bds
