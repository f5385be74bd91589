#include "store/lease.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "fault/error.h"
#include "store/record.h"

namespace bds {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
elapsedMs(Clock::time_point since)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - since)
            .count());
}

/** Version of the lease file layout ("BDSLEASE 1"). */
constexpr unsigned kLeaseVersion = 1;

/** Render this process's lease payload at `beat`. */
std::string
leaseBody(std::uint64_t beat)
{
    std::string body;
    appendField(body, "BDSLEASE", kLeaseVersion);
    appendField(body, "pid", static_cast<std::uint64_t>(::getpid()));
    appendField(body, "beat", beat);
    return body;
}

} // namespace

bool
pidVanished(long pid)
{
    if (pid <= 0)
        return true;
    if (::kill(static_cast<pid_t>(pid), 0) == 0)
        return false;
    return errno == ESRCH;
}

Lease::Lease(std::string path, LeaseOptions opts)
    : path_(std::move(path)), opts_(opts)
{
}

Lease::~Lease() { release(); }

void
Lease::startHeartbeat()
{
    heartbeat_ = std::thread([this]() {
        // Sleep in short slices so release() never blocks a full
        // heartbeat period on join.
        const auto slice = std::chrono::milliseconds(
            opts_.heartbeatMs < 20 ? opts_.heartbeatMs : 20);
        auto last = Clock::now();
        while (!stop_.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(slice);
            if (stop_.load(std::memory_order_acquire))
                break;
            if (elapsedMs(last) < opts_.heartbeatMs)
                continue;
            last = Clock::now();
            const std::uint64_t beat =
                beat_.fetch_add(1, std::memory_order_relaxed) + 1;
            // A failed replace is swallowed: the lease may have been
            // taken over, and a beat that cannot land looks wedged to
            // waiters — the protocol's designed degradation.
            replaceFile(path_, leaseBody(beat));
        }
    });
}

void
Lease::release()
{
    if (released_)
        return;
    released_ = true;
    stop_.store(true, std::memory_order_release);
    if (heartbeat_.joinable())
        heartbeat_.join();
    // ENOENT is expected after a takeover already renamed us aside.
    std::remove(path_.c_str());
}

bool
readLease(const std::string &path, LeaseProbe *out)
{
    *out = LeaseProbe{};
    std::string bytes;
    if (!readFile(path, &bytes))
        return false;
    try {
        RecordCursor in(bytes, path);
        in.header("BDSLEASE", kLeaseVersion);
        const std::uint64_t pid = in.number("pid");
        const std::uint64_t beat = in.number("beat");
        if (pid <= static_cast<std::uint64_t>(
                std::numeric_limits<long>::max())
            && in.atEnd()) {
            out->pid = static_cast<long>(pid);
            out->beat = beat;
            out->parsed = true;
        }
    } catch (const Error &) {
        // Foreign bytes: present but unparsed.
    }
    return true;
}

std::unique_ptr<Lease>
tryAcquireLease(const std::string &path, const LeaseOptions &opts)
{
    const int fd =
        ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0666);
    if (fd < 0) {
        const int err = errno;
        if (err == EEXIST)
            return nullptr;
        BDS_RAISE(ErrorCode::Io, "cannot create lease '"
                                     << path << "': "
                                     << std::strerror(err));
    }
    const std::string body = leaseBody(0);
    const bool wrote = writeAll(fd, body);
    const int werr = errno;
    ::close(fd);
    if (!wrote) {
        ::unlink(path.c_str());
        BDS_RAISE(ErrorCode::Io, "cannot stamp lease '"
                                     << path << "': "
                                     << std::strerror(werr));
    }
    std::unique_ptr<Lease> lease(new Lease(path, opts));
    lease->startHeartbeat();
    return lease;
}

std::unique_ptr<Lease>
acquireLease(const std::string &path, const LeaseOptions &opts,
             const std::function<bool()> &cancel, LeaseWaitStats *stats)
{
    LeaseWaitStats local;
    LeaseWaitStats &st = stats ? *stats : local;
    st = LeaseWaitStats{};

    std::uint64_t backoffMs = opts.pollMinMs ? opts.pollMinMs : 1;

    // Staleness is judged over *continuous observation*: the watch
    // resets whenever the beat advances or the holder identity
    // changes, so a healthy-but-slow holder is never preempted.
    bool watching = false;
    LeaseProbe watched;
    Clock::time_point watchStart{};

    for (;;) {
        // Before every create: a holder that published and released
        // (or died after publishing) since the last look must end the
        // wait, not hand this caller a lease it does not need.
        if (cancel && cancel()) {
            st.canceled = true;
            return nullptr;
        }
        std::unique_ptr<Lease> lease = tryAcquireLease(path, opts);
        if (lease)
            return lease;

        LeaseProbe probe;
        if (!readLease(path, &probe)) {
            // Freed between our create attempt and the read — retry
            // the create immediately.
            watching = false;
            continue;
        }

        bool takeover = false;
        if (probe.parsed && pidVanished(probe.pid)) {
            takeover = true;
        } else {
            const bool sameHolder = watching
                && probe.parsed == watched.parsed
                && probe.pid == watched.pid
                && probe.beat == watched.beat;
            if (!sameHolder) {
                watching = true;
                watched = probe;
                watchStart = Clock::now();
            } else if (elapsedMs(watchStart) >= opts.staleMs) {
                // Live pid but no progress for staleMs (or foreign
                // unparseable bytes squatting on the lease path).
                takeover = true;
            }
        }

        if (takeover) {
            const std::string aside =
                path + ".stale." + std::to_string(::getpid());
            if (std::rename(path.c_str(), aside.c_str()) == 0) {
                // We won the challenge; the corpse is ours to reap.
                std::remove(aside.c_str());
                ++st.takeovers;
            }
            // Either way the path is (or is about to be) free —
            // compete for the create again.
            watching = false;
            continue;
        }

        ++st.waits;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoffMs));
        backoffMs *= 2;
        if (opts.pollMaxMs && backoffMs > opts.pollMaxMs)
            backoffMs = opts.pollMaxMs;
    }
}

} // namespace bds
