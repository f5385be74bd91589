#include "serve/request.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "metrics/schema.h"
#include "uarch/machine.h"
#include "workloads/registry.h"

namespace bds {

namespace {

/** Strict 0/1 switch for request fields. */
bool
parseFlag(const std::string &what, const std::string &value)
{
    if (value == "0")
        return false;
    if (value == "1")
        return true;
    BDS_RAISE(ErrorCode::InvalidConfig,
              what << " must be 0 or 1, got '" << value << "'");
}

/** Strict non-negative integer for request fields. */
std::uint64_t
parseRequestUint(const std::string &what, const std::string &value)
{
    if (value.empty()
        || value.find_first_not_of("0123456789") != std::string::npos)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  what << " must be a non-negative integer, got '"
                       << value << "'");
    errno = 0;
    const std::uint64_t v = std::strtoull(value.c_str(), nullptr, 10);
    if (errno == ERANGE)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  what << " is out of range: '" << value << "'");
    return v;
}

/** Workload-name list to mask; unknown names are UnknownName. */
std::uint32_t
workloadMaskFromNames(const std::vector<std::string> &names)
{
    std::uint32_t mask = 0;
    for (const std::string &name : names)
        mask |= 1u << workloadIndex(name);
    return mask;
}

/**
 * Metric names on the wire spell spaces as '_' ("SSE FP" travels as
 * "SSE_FP"), because the line protocol splits tokens on whitespace.
 * No schema name contains '_', so the mapping is bijective.
 */
std::string
wireMetricName(std::string name)
{
    for (char &c : name)
        if (c == ' ')
            c = '_';
    return name;
}

std::string
unwireMetricName(std::string name)
{
    for (char &c : name)
        if (c == '_')
            c = ' ';
    return name;
}

/** Metric-name list to mask; unknown names are UnknownName. */
std::uint64_t
metricMaskFromNames(const std::vector<std::string> &names)
{
    std::uint64_t mask = 0;
    for (const std::string &name : names) {
        std::size_t idx = metricIndexByName(unwireMetricName(name));
        if (idx >= kNumMetrics)
            BDS_RAISE(ErrorCode::UnknownName,
                      "request names unknown metric '" << name << "'");
        mask |= 1ull << idx;
    }
    // Selecting every column is the full set; canonicalize to 0 so
    // the wire forms agree.
    if (mask == (1ull << kNumMetrics) - 1)
        mask = 0;
    return mask;
}

} // namespace

std::string
serveScaleName(std::uint32_t scale)
{
    switch (scale) {
    case 0:
        return "quick";
    case 1:
        return "standard";
    case 2:
        return "full";
    default:
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "request record has unknown scale index " << scale);
    }
}

std::uint32_t
serveScaleIndex(const std::string &name)
{
    if (name == "quick")
        return 0;
    if (name == "standard")
        return 1;
    if (name == "full")
        return 2;
    BDS_RAISE(ErrorCode::InvalidConfig,
              "request scale must be quick, standard or full, got '"
                  << name << "'");
}

std::string
serveMachineName(std::uint32_t machine)
{
    const std::vector<MachinePreset> &all = machinePresets();
    if (machine >= all.size())
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "request record has machine index "
                      << machine << " beyond the " << all.size()
                      << "-preset registry (log from a newer build?)");
    return all[machine].name;
}

std::uint32_t
serveMachineIndex(const std::string &name)
{
    if (name.find('=') != std::string::npos)
        BDS_RAISE(ErrorCode::UnknownName,
                  "request machine '"
                      << name
                      << "' looks like an override spec; the wire "
                         "accepts registry preset names only");
    return static_cast<std::uint32_t>(machinePresetIndex(name));
}

std::vector<std::string>
workloadNamesFromMask(std::uint32_t mask)
{
    const std::vector<WorkloadId> all = allWorkloads();
    std::vector<std::string> out;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (mask & (1u << i))
            out.push_back(all[i].name());
    return out;
}

std::vector<std::string>
metricNamesFromMask(std::uint64_t mask)
{
    std::vector<std::string> out;
    if (mask == 0)
        return out;
    for (std::size_t i = 0; i < kNumMetrics; ++i)
        if (mask & (1ull << i))
            out.push_back(metricName(i));
    return out;
}

RequestRecord
parseRequestLine(const std::string &line)
{
    // Whitespace-separated tokens, split where `>>` splits (the C
    // locale's isspace), without a stream per request.
    auto space = [&](std::size_t i) {
        return std::isspace(static_cast<unsigned char>(line[i])) != 0;
    };
    std::size_t pos = 0;
    auto next = [&]() {
        while (pos < line.size() && space(pos))
            ++pos;
        const std::size_t start = pos;
        while (pos < line.size() && !space(pos))
            ++pos;
        return std::string_view(line).substr(start, pos - start);
    };
    const std::string_view verb = next();
    if (verb != "characterize")
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "unknown request verb '" << verb << "'");

    RequestRecord req;
    req.op = static_cast<std::uint32_t>(ServeOp::Characterize);
    req.scale = serveScaleIndex("quick");
    for (std::string_view token = next(); !token.empty();
         token = next()) {
        const std::size_t eq = token.find('=');
        if (eq == std::string_view::npos)
            BDS_RAISE(ErrorCode::InvalidConfig,
                      "request token '" << token
                          << "' is not key=value");
        const std::string_view key = token.substr(0, eq);
        const std::string value(token.substr(eq + 1));
        if (key == "scale") {
            req.scale = serveScaleIndex(value);
        } else if (key == "seed") {
            req.seed = parseRequestUint("request seed", value);
        } else if (key == "sampled") {
            if (parseFlag("request sampled", value))
                req.flags |= kServeFlagSampled;
            else
                req.flags &= ~kServeFlagSampled;
        } else if (key == "bypass") {
            if (parseFlag("request bypass", value))
                req.flags |= kServeFlagBypass;
            else
                req.flags &= ~kServeFlagBypass;
        } else if (key == "machine") {
            req.machine = serveMachineIndex(value);
        } else if (key == "workloads") {
            req.workloadMask =
                value == "all"
                    ? 0xffffffffu
                    : workloadMaskFromNames(
                          splitList("request workloads", value));
        } else if (key == "metrics") {
            req.metricMask =
                value == "all" ? 0
                               : metricMaskFromNames(splitList(
                                     "request metrics", value));
        } else {
            BDS_RAISE(ErrorCode::InvalidConfig,
                      "request has unknown key '" << key << "'");
        }
    }
    return req;
}

std::string
formatRequestLine(const RequestRecord &req)
{
    std::ostringstream os;
    os << "characterize scale=" << serveScaleName(req.scale)
       << " seed=" << req.seed;
    if (req.flags & kServeFlagSampled)
        os << " sampled=1";
    if (req.flags & kServeFlagBypass)
        os << " bypass=1";
    if (req.machine != 0)
        os << " machine=" << serveMachineName(req.machine);
    if (req.workloadMask != 0xffffffffu) {
        os << " workloads=";
        const std::vector<std::string> names =
            workloadNamesFromMask(req.workloadMask);
        for (std::size_t i = 0; i < names.size(); ++i)
            os << (i ? "," : "") << names[i];
    }
    if (req.metricMask != 0) {
        os << " metrics=";
        const std::vector<std::string> names =
            metricNamesFromMask(req.metricMask);
        for (std::size_t i = 0; i < names.size(); ++i)
            os << (i ? "," : "") << wireMetricName(names[i]);
    }
    return os.str();
}

void
storeRequestLog(const std::string &path,
                const std::vector<RequestRecord> &requests)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        BDS_RAISE(ErrorCode::Io,
                  "cannot write request log '" << path << "'");
    const std::uint32_t magic = kRequestLogMagic;
    const std::uint32_t version = kRequestLogVersion;
    const std::uint32_t count =
        static_cast<std::uint32_t>(requests.size());
    out.write(reinterpret_cast<const char *>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char *>(&version),
              sizeof(version));
    out.write(reinterpret_cast<const char *>(&count), sizeof(count));
    for (const RequestRecord &req : requests)
        out.write(reinterpret_cast<const char *>(&req), sizeof(req));
    if (!out)
        BDS_RAISE(ErrorCode::Io,
                  "short write to request log '" << path << "'");
}

std::vector<RequestRecord>
loadRequestLog(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        BDS_RAISE(ErrorCode::Io,
                  "cannot open request log '" << path << "'");
    std::uint32_t magic = 0, version = 0, count = 0;
    in.read(reinterpret_cast<char *>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char *>(&version), sizeof(version));
    in.read(reinterpret_cast<char *>(&count), sizeof(count));
    if (!in)
        BDS_RAISE(ErrorCode::Io,
                  "request log '" << path << "' is truncated (header)");
    if (magic != kRequestLogMagic)
        BDS_RAISE(ErrorCode::Io,
                  "'" << path << "' is not a bds request log "
                      << "(bad magic)");
    if (version != kRequestLogVersion && version != 1)
        BDS_RAISE(ErrorCode::Io,
                  "request log '" << path << "' has unsupported "
                      << "version " << version << " (expected "
                      << kRequestLogVersion << ")");
    // v1 records are a strict 32-byte prefix of the v2 layout — the
    // machine/reserved tail was appended, never reordered — so a v1
    // log reads as v2 records with machine 0 (the default, which is
    // exactly what every v1 request meant).
    const std::streamsize rec_bytes = static_cast<std::streamsize>(
        version == 1 ? kRequestRecordV1Bytes : sizeof(RequestRecord));
    // The count is outside input: reserve no more records than the
    // bytes after the header can hold, and let the read loop below
    // reject an overstated count.
    const std::streamoff header_end = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streamoff left = in.tellg() - header_end;
    in.seekg(header_end);
    std::vector<RequestRecord> out;
    out.reserve(std::min<std::uint64_t>(
        count, static_cast<std::uint64_t>(left) / rec_bytes));
    for (std::uint32_t i = 0; i < count; ++i) {
        RequestRecord req;
        in.read(reinterpret_cast<char *>(&req), rec_bytes);
        if (!in || in.gcount() != rec_bytes)
            BDS_RAISE(ErrorCode::Io,
                      "request log '" << path << "' declares " << count
                          << " records but ends after " << i);
        out.push_back(req);
    }
    char extra;
    if (in.read(&extra, 1))
        BDS_RAISE(ErrorCode::Io,
                  "request log '" << path << "' has trailing bytes "
                      << "beyond its declared " << count << " records");
    return out;
}

struct RequestLogWriter::Impl
{
    std::fstream out;
    std::string path;
};

RequestLogWriter::RequestLogWriter(const std::string &path)
    : impl_(new Impl)
{
    impl_->path = path;
    impl_->out.open(path, std::ios::binary | std::ios::out
                              | std::ios::trunc);
    if (!impl_->out) {
        delete impl_;
        BDS_RAISE(ErrorCode::Io,
                  "cannot write request log '" << path << "'");
    }
    const std::uint32_t magic = kRequestLogMagic;
    const std::uint32_t version = kRequestLogVersion;
    const std::uint32_t count = 0;
    impl_->out.write(reinterpret_cast<const char *>(&magic),
                     sizeof(magic));
    impl_->out.write(reinterpret_cast<const char *>(&version),
                     sizeof(version));
    impl_->out.write(reinterpret_cast<const char *>(&count),
                     sizeof(count));
    impl_->out.flush();
}

RequestLogWriter::~RequestLogWriter()
{
    delete impl_;
}

void
RequestLogWriter::append(const RequestRecord &req)
{
    std::fstream &out = impl_->out;
    out.seekp(0, std::ios::end);
    out.write(reinterpret_cast<const char *>(&req), sizeof(req));
    ++count_;
    // Patch the header count so a crash leaves a loadable prefix.
    out.seekp(2 * sizeof(std::uint32_t), std::ios::beg);
    out.write(reinterpret_cast<const char *>(&count_), sizeof(count_));
    out.flush();
    if (!out)
        BDS_RAISE(ErrorCode::Io, "short write to request log '"
                                     << impl_->path << "'");
}

} // namespace bds
