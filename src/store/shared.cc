#include "store/shared.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <limits>
#include <tuple>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "fault/error.h"
#include "fault/inject.h"
#include "obs/metrics.h"
#include "store/record.h"

namespace bds {

namespace {

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size()
        && s.compare(s.size() - suffix.size(), suffix.size(), suffix)
        == 0;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/**
 * Parse the trailing ".<pid>" of an orphan coordination file
 * (temp/probe/stale-aside). Returns 0 when the tail is not a pid.
 */
long
trailingPid(const std::string &name)
{
    const std::size_t dot = name.find_last_of('.');
    std::uint64_t pid = 0;
    if (dot == std::string::npos
        || !parseDecimal(std::string_view(name).substr(dot + 1), &pid)
        || pid > static_cast<std::uint64_t>(std::numeric_limits<long>::max()))
        return 0;
    return static_cast<long>(pid);
}

/**
 * utimensat/futimens times stamping "now" from the realtime clock.
 * Explicit rather than UTIME_NOW: the kernel's file clock is coarse,
 * and same-tick stamps would tie in the LRU order.
 */
struct NowStamp
{
    struct timespec times[2];

    NowStamp()
    {
        ::clock_gettime(CLOCK_REALTIME, &times[0]);
        times[1] = times[0];
    }
};

/** What a directory scan reports about one entry file. */
struct ScannedEntry
{
    std::string name;
    std::uint64_t bytes = 0;

    /** Last publish or hit, in realtime nanoseconds. */
    std::int64_t mtimeNs = 0;
};

/** Every regular file in `dir` whose name ends in `suffix`. */
std::vector<ScannedEntry>
scanEntries(const std::string &dir, const std::string &suffix)
{
    std::vector<ScannedEntry> scan;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return scan;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (!endsWith(name, suffix))
            continue;
        struct stat st;
        const std::string path = dir + "/" + name;
        if (::stat(path.c_str(), &st) != 0
            || !S_ISREG(st.st_mode))
            continue;
        ScannedEntry s;
        s.name = name;
        s.bytes = static_cast<std::uint64_t>(st.st_size);
        s.mtimeNs = st.st_mtim.tv_sec * std::int64_t{1000000000}
            + st.st_mtim.tv_nsec;
        scan.push_back(std::move(s));
    }
    ::closedir(d);
    return scan;
}

} // namespace

SharedStore::SharedStore(SharedStoreOptions opts)
    : opts_(std::move(opts))
{
    if (opts_.dir.empty())
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "shared store needs a directory");
    if (::mkdir(opts_.dir.c_str(), 0777) != 0 && errno != EEXIST) {
        const int err = errno;
        enterDown(std::string("cannot create store directory '")
                  + opts_.dir + "': " + std::strerror(err));
        return;
    }

    reapOrphans();
    // Repair a previous killed-mid-evict run (or a budget lowered
    // between runs): the open itself restores the invariant.
    enforceBudget();
}

bool
SharedStore::down() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return down_;
}

std::string
SharedStore::entryPath(const std::string &name) const
{
    return opts_.dir + "/" + name;
}

void
SharedStore::enterDown(const std::string &what)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        lastProbe_ = std::chrono::steady_clock::now();
        if (down_)
            return;
        down_ = true;
    }
    counters::add(Counter::StoreDown);
    std::fprintf(stderr,
                 "bds: store '%s' degraded (computing without "
                 "caching): %s\n",
                 opts_.dir.c_str(), what.c_str());
}

bool
SharedStore::maybeHeal()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!down_)
            return true;
        const auto now = std::chrono::steady_clock::now();
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - lastProbe_)
                .count();
        if (opts_.healProbeMs
            && static_cast<std::uint64_t>(elapsed) < opts_.healProbeMs)
            return false;
        lastProbe_ = now;
    }

    // Probe: the disk is healthy again iff a full create/write/
    // fsync/unlink round-trip succeeds in the store directory.
    const std::string probe =
        opts_.dir + "/.probe." + std::to_string(::getpid());
    const int fd =
        ::open(probe.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
    if (fd < 0)
        return false;
    const bool ok =
        ::write(fd, "ok\n", 3) == 3 && ::fsync(fd) == 0;
    ::close(fd);
    ::unlink(probe.c_str());
    if (!ok)
        return false;

    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!down_)
            return true;
        down_ = false;
    }
    counters::add(Counter::StoreHeal);
    std::fprintf(stderr, "bds: store '%s' healed (caching resumed)\n",
                 opts_.dir.c_str());
    return true;
}

bool
SharedStore::read(const std::string &name, std::string *bytes)
{
    if (!maybeHeal())
        return false;
    const std::string path = entryPath(name);
    if (!readFile(path, bytes))
        return false;

    // The mtime is the recency every process's eviction reads; a
    // failed stamp only costs LRU accuracy.
    ::utimensat(AT_FDCWD, path.c_str(), NowStamp().times, 0);
    return true;
}

bool
SharedStore::publish(const std::string &name, const std::string &bytes)
{
    if (!maybeHeal()) {
        counters::add(Counter::StorePublishSkipped);
        return false;
    }

    const FaultInjector &inj = FaultInjector::global();
    if (inj.shouldFailIo("store.enospc")) {
        enterDown("injected ENOSPC writing '" + name + "'");
        return false;
    }
    if (inj.shouldFailIo("store.write")) {
        enterDown("injected write failure on '" + name + "'");
        return false;
    }

    const std::string path = entryPath(name);
    const std::string tmp = tempPath(path);

    const int fd =
        ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
    if (fd < 0) {
        const int err = errno;
        enterDown("cannot write '" + tmp
                  + "': " + std::strerror(err));
        return false;
    }
    if (!writeAll(fd, bytes)) {
        const int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        enterDown("short write to '" + tmp
                  + "': " + std::strerror(err));
        return false;
    }
    // The entry's first recency stamp (best-effort, like a hit's);
    // the rename keeps it.
    ::futimens(fd, NowStamp().times);
    // fsync before rename: after the rename lands, the entry's bytes
    // are durable — a crash can lose the entry, never tear it.
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        enterDown("cannot fsync '" + tmp
                  + "': " + std::strerror(err));
        return false;
    }
    ::close(fd);

    if (inj.shouldFailIo("store.rename")) {
        ::unlink(tmp.c_str());
        enterDown("injected rename failure on '" + name + "'");
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        enterDown("cannot publish '" + path
                  + "': " + std::strerror(err));
        return false;
    }

    counters::add(Counter::StorePublish);
    enforceBudget();
    return true;
}

FlightTicket
SharedStore::singleFlight(const std::string &name)
{
    FlightTicket ticket;
    if (!maybeHeal())
        return ticket; // uncoordinated: correctness over caching

    if (FaultInjector::global().shouldFailIo("store.lease")) {
        enterDown("injected lease failure on '" + name + "'");
        return ticket;
    }

    const std::string entry = entryPath(name);
    const std::string leasePath = entry + ".lease";
    try {
        std::unique_ptr<Lease> lease =
            tryAcquireLease(leasePath, opts_.lease);
        if (!lease) {
            // Someone else is computing: wait for their publish (the
            // entry appearing cancels the wait) or take over their
            // lease if they die or wedge.
            counters::add(Counter::StoreLeaseWait);
            LeaseWaitStats ws;
            lease = acquireLease(
                leasePath, opts_.lease,
                [&entry]() { return fileExists(entry); }, &ws);
            counters::add(Counter::StoreLeaseTakeover, ws.takeovers);
            if (ws.canceled) {
                ticket.entryAppeared = true;
                return ticket;
            }
        }
        counters::add(Counter::StoreLeaseAcquire);
        ticket.lease = std::move(lease);
        return ticket;
    } catch (const Error &e) {
        enterDown(std::string("lease machinery failed: ") + e.what());
        return ticket;
    }
}

void
SharedStore::reapOrphans() const
{
    DIR *d = ::opendir(opts_.dir.c_str());
    if (!d)
        return;
    std::vector<std::string> doomed;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        // Coordination litter is always "<something>.<marker>.<pid>";
        // reap it once the owning process is gone.
        const bool orphanKind = name.find(".tmp.") != std::string::npos
            || name.find(".probe.") != std::string::npos
            || name.find(".stale.") != std::string::npos;
        if (!orphanKind)
            continue;
        const long pid = trailingPid(name);
        if (pid > 0 && pidVanished(pid))
            doomed.push_back(name);
    }
    ::closedir(d);
    for (const std::string &name : doomed)
        ::unlink((opts_.dir + "/" + name).c_str());
}

void
SharedStore::enforceBudget()
{
    if (opts_.maxBytes == 0)
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (down_)
            return;
    }

    // The directory is the one recency record: the rescan sees every
    // process's publishes and hits, and repairs a crash mid-evict.
    std::vector<ScannedEntry> scan = scanEntries(opts_.dir, opts_.suffix);
    std::uint64_t total = 0;
    for (const ScannedEntry &e : scan)
        total += e.bytes;
    if (total <= opts_.maxBytes)
        return;
    std::sort(scan.begin(), scan.end(),
              [](const ScannedEntry &a, const ScannedEntry &b) {
                  return std::tie(a.mtimeNs, a.name)
                      < std::tie(b.mtimeNs, b.name);
              });

    std::lock_guard<std::mutex> lock(mu_);
    for (const ScannedEntry &victim : scan) {
        if (total <= opts_.maxBytes)
            break;
        // Unlink-per-entry keeps eviction crash-safe: each step is
        // atomic, and a concurrent reader that already opened the
        // file keeps its bytes (POSIX unlink semantics). An entry
        // another process unlinked first is gone all the same.
        if (::unlink(entryPath(victim.name).c_str()) == 0) {
            counters::add(Counter::StoreEvict);
            counters::add(Counter::StoreEvictBytes, victim.bytes);
        } else if (errno != ENOENT) {
            continue;
        }
        total -= victim.bytes;
    }
}

} // namespace bds
