#include "fault/error.h"

#include <algorithm>

namespace bds {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::None: return "none";
      case ErrorCode::InvalidConfig: return "invalid_config";
      case ErrorCode::UnknownName: return "unknown_name";
      case ErrorCode::DegenerateData: return "degenerate_data";
      case ErrorCode::WorkloadFailure: return "workload_failure";
      case ErrorCode::Timeout: return "timeout";
      case ErrorCode::AllocFailure: return "alloc_failure";
      case ErrorCode::InjectedFault: return "injected_fault";
      case ErrorCode::Io: return "io";
      case ErrorCode::Internal: return "internal";
      case ErrorCode::Overloaded: return "overloaded";
    }
    BDS_PANIC("unknown error code");
}

bool
errorCodeFromName(const std::string &name, ErrorCode *out)
{
    for (unsigned c = 0;
         c <= static_cast<unsigned>(ErrorCode::Overloaded); ++c) {
        ErrorCode code = static_cast<ErrorCode>(c);
        if (name == errorCodeName(code)) {
            *out = code;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
splitList(const std::string &what, const std::string &csv)
{
    if (csv.empty())
        BDS_RAISE(ErrorCode::InvalidConfig,
                  what << " must name at least one entry");
    std::vector<std::string> out;
    for (std::size_t pos = 0;;) {
        const std::size_t comma = std::min(csv.find(',', pos), csv.size());
        if (comma == pos)
            BDS_RAISE(ErrorCode::InvalidConfig,
                      what << " has an empty name in '" << csv << "'");
        out.emplace_back(csv, pos, comma - pos);
        if (comma == csv.size())
            return out;
        pos = comma + 1;
    }
}

namespace detail {

void
throwError(ErrorCode code, const char *file, int line,
           const std::string &msg)
{
    std::ostringstream oss;
    oss << errorCodeName(code) << ": " << msg << " (" << file << ':'
        << line << ')';
    throw Error(code, oss.str());
}

} // namespace detail

} // namespace bds
