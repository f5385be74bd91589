#include "store/record.h"

#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdio>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "ckpt/state.h"
#include "fault/error.h"

namespace bds {

void
appendField(std::string &out, std::string_view key,
            std::string_view value)
{
    out.append(key);
    out.push_back(' ');
    out.append(value);
    out.push_back('\n');
}

void
appendField(std::string &out, std::string_view key, std::uint64_t n)
{
    appendField(out, key, std::to_string(n));
}

void
appendSized(std::string &out, std::string_view key,
            std::string_view bytes)
{
    out.append(key);
    appendField(out, "_bytes", bytes.size());
    out.append(bytes);
}

bool
parseDecimal(std::string_view v, std::uint64_t *n)
{
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), *n);
    return ec == std::errc() && end == v.data() + v.size();
}

std::uint64_t
stateChecksum(std::string_view bytes)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ULL; // FNV-1a 64
    constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
    constexpr int kRot = 29;
    // Four independent multiply chains over 32-byte blocks, so the
    // CPU overlaps their latencies; the rotate feeds each product's
    // high bits back into the low ones. Every step is a bijection of
    // the running state for a fixed input word (xor, multiply by an
    // odd constant, rotate), so a change confined to one word or one
    // tail byte always changes the result.
    std::uint64_t lane[4] = {kBasis, kBasis + 1, kBasis + 2,
                             kBasis + 3};
    const char *p = bytes.data();
    const char *const end = p + bytes.size();
    for (; end - p >= 32; p += 32)
        for (int i = 0; i < 4; ++i)
            lane[i] = std::rotl((lane[i] ^ loadLe64(p + 8 * i)) * kPrime,
                                kRot);
    std::uint64_t h = kBasis;
    for (std::uint64_t l : lane)
        h = std::rotl((h ^ l) * kPrime, kRot);
    for (; p < end; ++p)
        h = (h ^ static_cast<unsigned char>(*p)) * kPrime;
    return (h ^ bytes.size()) * kPrime;
}

void
RecordCursor::header(std::string_view magic, std::uint64_t version)
{
    const std::uint64_t v = number(magic);
    if (v != version)
        BDS_RAISE(ErrorCode::Io, what_ << ": unsupported " << magic
                                       << " version " << v
                                       << " (expected " << version
                                       << ")");
}

std::string_view
RecordCursor::line()
{
    const std::size_t nl = rest_.find('\n');
    if (nl == std::string_view::npos)
        BDS_RAISE(ErrorCode::Io,
                  what_ << ": truncated record (unexpected EOF)");
    const std::string_view l = rest_.substr(0, nl);
    rest_.remove_prefix(nl + 1);
    return l;
}

std::string_view
RecordCursor::field(std::string_view key)
{
    const std::string_view l = line();
    if (l.size() <= key.size() + 1 || l.substr(0, key.size()) != key
        || l[key.size()] != ' ')
        BDS_RAISE(ErrorCode::Io, what_ << ": expected '" << key
                                       << " <value>', got '"
                                       << l.substr(0, 64) << "'");
    return l.substr(key.size() + 1);
}

std::uint64_t
RecordCursor::number(std::string_view key)
{
    const std::string_view v = field(key);
    std::uint64_t n = 0;
    if (!parseDecimal(v, &n))
        BDS_RAISE(ErrorCode::Io, what_ << ": expected '" << key
                                       << " <n>', got '" << key << ' '
                                       << v.substr(0, 64) << "'");
    return n;
}

std::string_view
RecordCursor::sized(std::string_view key)
{
    const std::uint64_t n = number(std::string(key) + "_bytes");
    if (n > rest_.size())
        BDS_RAISE(ErrorCode::Io, what_ << ": " << key
                                       << " payload truncated ("
                                       << rest_.size() << " of " << n
                                       << " bytes)");
    const std::string_view out =
        rest_.substr(0, static_cast<std::size_t>(n));
    rest_.remove_prefix(out.size());
    return out;
}

void
RecordCursor::end()
{
    if (line() != "END")
        BDS_RAISE(ErrorCode::Io,
                  what_ << ": missing END sentinel (truncated record)");
    if (!atEnd())
        BDS_RAISE(ErrorCode::Io,
                  what_ << ": trailing bytes after the END sentinel "
                        << "(corrupt record)");
}

bool
readFile(const std::string &path, std::string *bytes)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    // One copy, kernel to caller; the loop does not trust the size.
    struct stat st;
    const std::size_t hint = ::fstat(fd, &st) == 0 && st.st_size > 0
        ? static_cast<std::size_t>(st.st_size) : 0;
    // One spare byte, so the read that finds EOF needs no regrow.
    std::string buf(hint + 1, '\0');
    std::size_t got = 0;
    for (;;) {
        if (got == buf.size())
            buf.resize(2 * buf.size());
        const ssize_t n = ::read(fd, buf.data() + got, buf.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    buf.resize(got);
    *bytes = std::move(buf);
    return true;
}

std::string
tempPath(const std::string &path)
{
    return path + ".tmp." + std::to_string(::getpid());
}

bool
writeAll(int fd, std::string_view bytes)
{
    while (!bytes.empty()) {
        const ssize_t wrote = ::write(fd, bytes.data(), bytes.size());
        if (wrote < 0 && errno == EINTR)
            continue;
        if (wrote < 0)
            return false;
        bytes.remove_prefix(static_cast<std::size_t>(wrote));
    }
    return true;
}

bool
replaceFile(const std::string &path, std::string_view bytes)
{
    const std::string tmp = tempPath(path);
    const int fd =
        ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0666);
    if (fd < 0)
        return false;
    const bool wrote = writeAll(fd, bytes);
    if (::close(fd) != 0 || !wrote
        || std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace bds
