/**
 * @file
 * The typed error taxonomy of the fault-tolerance layer.
 *
 * bds::Error refines the ad-hoc BDS_FATAL path with a machine-
 * readable ErrorCode, so recovery policy (retry? quarantine? abort?)
 * and failure records (manifest, trace) can dispatch on *what went
 * wrong* instead of parsing message strings. Error derives from
 * FatalError, so every existing `catch (const FatalError &)` handler
 * — the example/bench mains, the test suite — keeps working
 * unchanged; typed throwers simply carry more information.
 *
 * Raise with BDS_RAISE(code, msg), the streaming macro twin of
 * BDS_FATAL.
 */

#ifndef BDS_FAULT_ERROR_H
#define BDS_FAULT_ERROR_H

#include <sstream>
#include <string>
#include <vector>

#include "common/log.h"

namespace bds {

/** What kind of failure an Error describes. */
enum class ErrorCode : unsigned
{
    None,            ///< no error (clean RunRecord placeholder)
    InvalidConfig,   ///< bad knob, flag or argument value
    UnknownName,     ///< unknown scale/metric/workload name
    DegenerateData,  ///< NaN/Inf values, zero variance, K > n
    WorkloadFailure, ///< a workload simulation threw
    Timeout,         ///< the watchdog deadline expired
    AllocFailure,    ///< allocation failed at a guarded site
    InjectedFault,   ///< the fault injector fired at this site
    Io,              ///< file could not be read or written
    Internal,        ///< violated invariant (library bug)
    Overloaded,      ///< request shed by the admission queue
};

/** Stable snake_case name of a code ("injected_fault", ...). */
const char *errorCodeName(ErrorCode code);

/**
 * Parse an errorCodeName() string. Returns false (leaving *out
 * untouched) for unknown names, so manifest validators can report
 * rather than throw.
 */
bool errorCodeFromName(const std::string &name, ErrorCode *out);

/** A FatalError carrying a typed ErrorCode. */
class Error : public FatalError
{
  public:
    Error(ErrorCode code, const std::string &msg)
        : FatalError(msg), code_(code) {}

    /** The failure classification. */
    ErrorCode code() const { return code_; }

  private:
    ErrorCode code_;
};

/**
 * Split a comma-separated name list (a flag, an env var, a request
 * field). Every comma separates two names, so an empty list or a
 * leading, doubled or trailing comma raises InvalidConfig, naming
 * the list as `what`.
 */
std::vector<std::string> splitList(const std::string &what,
                                   const std::string &csv);

namespace detail {

/** Build the message string and throw bds::Error. */
[[noreturn]] void throwError(ErrorCode code, const char *file, int line,
                             const std::string &msg);

} // namespace detail

} // namespace bds

/** Abort the operation with a typed bds::Error. */
#define BDS_RAISE(code, msg)                                                \
    do {                                                                    \
        std::ostringstream bds_oss_;                                        \
        bds_oss_ << msg;                                                    \
        ::bds::detail::throwError(code, __FILE__, __LINE__,                 \
                                  bds_oss_.str());                          \
    } while (0)

#endif // BDS_FAULT_ERROR_H
