/**
 * @file
 * SharedStore failure-matrix tests: LRU eviction under a byte
 * budget, eviction sparing already-open readers, index corruption
 * rebuilt at open, killed-mid-evict (over-budget) state repaired at
 * open, injected disk faults degrading to store-down mode and
 * self-healing, and fork-based two-process single-flight.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "fault/error.h"
#include "fault/inject.h"
#include "obs/metrics.h"
#include "store/shared.h"

namespace bds {
namespace {

using counters::value;

/** Disarm the global injector when a test scope ends. */
struct DisarmGuard
{
    ~DisarmGuard() { FaultInjector::global().disarm(); }
};

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::system(("rm -rf '" + dir + "'").c_str());
    return dir;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Options with millisecond-scale lease timing and eager healing. */
SharedStoreOptions
testOpts(std::string dir, std::uint64_t maxBytes = 0)
{
    SharedStoreOptions opts;
    opts.dir = std::move(dir);
    opts.suffix = ".ent";
    opts.maxBytes = maxBytes;
    opts.lease.heartbeatMs = 20;
    opts.lease.staleMs = 200;
    opts.lease.pollMinMs = 1;
    opts.lease.pollMaxMs = 10;
    opts.healProbeMs = 0;
    return opts;
}

const std::string kPayload(100, 'x'); // every test entry is 100 bytes

TEST(SharedStore, PublishAndReadRoundTrip)
{
    SharedStore store(testOpts(freshDir("bds_shared_roundtrip")));
    EXPECT_FALSE(store.down());

    std::string bytes;
    EXPECT_FALSE(store.read("a.ent", &bytes));
    ASSERT_TRUE(store.publish("a.ent", kPayload));
    ASSERT_TRUE(store.read("a.ent", &bytes));
    EXPECT_EQ(bytes, kPayload);
    EXPECT_TRUE(fileExists(store.entryPath("a.ent")));

    // A multi-MiB entry with every byte value, and an empty one,
    // come back exactly; the caller's old contents never leak in.
    std::string big(5 * 1024 * 1024 + 3, '\0');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>((i * 131) ^ (i >> 11));
    ASSERT_TRUE(store.publish("big.ent", big));
    ASSERT_TRUE(store.publish("empty.ent", ""));
    ASSERT_TRUE(store.read("big.ent", &bytes));
    EXPECT_TRUE(bytes == big);
    ASSERT_TRUE(store.read("empty.ent", &bytes));
    EXPECT_EQ(bytes, "");
    bytes = "stale";
    EXPECT_FALSE(store.read("missing.ent", &bytes));
}

TEST(SharedStore, EmptyDirectoryIsInvalidConfig)
{
    try {
        SharedStore store(testOpts(""));
        FAIL() << "expected Error(InvalidConfig)";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
    }
}

TEST(SharedStore, UncreatableDirectoryOpensDownNotThrowing)
{
    // A directory path under a regular file can never be created:
    // the store opens in down mode and every operation degrades to a
    // counted no-op — the caller computes uncached, nothing crashes.
    const std::string block = freshDir("bds_shared_blocker");
    { std::ofstream f(block, std::ios::trunc); f << "x"; }

    const std::uint64_t downs = value(Counter::StoreDown);
    const std::uint64_t skipped = value(Counter::StorePublishSkipped);
    SharedStoreOptions opts = testOpts(block + "/sub");
    // Keep the store down for the whole test: no instant re-probes.
    opts.healProbeMs = 60000;
    SharedStore store(opts);
    EXPECT_TRUE(store.down());
    EXPECT_EQ(value(Counter::StoreDown), downs + 1);

    std::string bytes;
    EXPECT_FALSE(store.read("a.ent", &bytes));
    EXPECT_FALSE(store.publish("a.ent", kPayload));
    EXPECT_EQ(value(Counter::StorePublishSkipped), skipped + 1);

    // Single-flight while down: no lease, no wait — uncoordinated.
    FlightTicket ticket = store.singleFlight("a.ent");
    EXPECT_FALSE(ticket.lease);
    EXPECT_FALSE(ticket.entryAppeared);
    std::remove(block.c_str());
}

TEST(SharedStore, BudgetEvictsLeastRecentlyUsedFirst)
{
    // Budget fits two 100-byte entries; the third publish evicts.
    SharedStore store(
        testOpts(freshDir("bds_shared_lru"), 250));

    const std::uint64_t evicted = value(Counter::StoreEvict);
    const std::uint64_t evictedBytes = value(Counter::StoreEvictBytes);
    ASSERT_TRUE(store.publish("a.ent", kPayload));
    ASSERT_TRUE(store.publish("b.ent", kPayload));
    ASSERT_TRUE(store.publish("c.ent", kPayload));
    EXPECT_FALSE(fileExists(store.entryPath("a.ent"))); // LRU victim
    EXPECT_TRUE(fileExists(store.entryPath("b.ent")));
    EXPECT_TRUE(fileExists(store.entryPath("c.ent")));
    EXPECT_EQ(value(Counter::StoreEvict), evicted + 1);
    EXPECT_EQ(value(Counter::StoreEvictBytes),
              evictedBytes + kPayload.size());

    // A read refreshes recency: after touching b, the next eviction
    // victim is c, not b. The hit also bumps b's mtime, so other
    // processes rebuilding recency from the directory agree.
    struct timespec aged[2];
    aged[0].tv_sec = 1000000;
    aged[0].tv_nsec = 0;
    aged[1] = aged[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, store.entryPath("b.ent").c_str(),
                          aged, 0),
              0);
    std::string bytes;
    ASSERT_TRUE(store.read("b.ent", &bytes));
    struct stat st;
    ASSERT_EQ(::stat(store.entryPath("b.ent").c_str(), &st), 0);
    EXPECT_GT(st.st_mtime, aged[0].tv_sec);
    ASSERT_TRUE(store.publish("d.ent", kPayload));
    EXPECT_TRUE(fileExists(store.entryPath("b.ent")));
    EXPECT_FALSE(fileExists(store.entryPath("c.ent")));
    EXPECT_TRUE(fileExists(store.entryPath("d.ent")));
}

TEST(SharedStore, EvictionSparesAnAlreadyOpenReader)
{
    SharedStore store(
        testOpts(freshDir("bds_shared_open_reader"), 150));

    ASSERT_TRUE(store.publish("a.ent", kPayload));
    const int fd = ::open(store.entryPath("a.ent").c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);

    // The next publish evicts a's file, but POSIX unlink semantics
    // keep the open fd's bytes intact: a concurrent reader mid-entry
    // is never torn, it just read an entry that no longer exists.
    ASSERT_TRUE(store.publish("b.ent", kPayload));
    EXPECT_FALSE(fileExists(store.entryPath("a.ent")));

    std::string bytes(kPayload.size(), '\0');
    ASSERT_EQ(::read(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    EXPECT_EQ(bytes, kPayload);
    ::close(fd);
}

TEST(SharedStore, CorruptIndexIsRebuiltFromTheDirectoryAtOpen)
{
    const std::string dir = freshDir("bds_shared_rebuild");
    {
        SharedStore store(testOpts(dir));
        ASSERT_TRUE(store.publish("old.ent", kPayload));
        ASSERT_TRUE(store.publish("new.ent", kPayload));
    }
    // Age old.ent on disk so the rebuilt (mtime-order) recency is
    // observable through the next eviction.
    struct timespec times[2];
    times[0].tv_sec = 1000000;
    times[0].tv_nsec = 0;
    times[1] = times[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, (dir + "/old.ent").c_str(),
                          times, 0),
              0);
    {
        std::ofstream f(dir + "/store.index", std::ios::trunc);
        f << "definitely not an index\n\x01\x02";
    }

    const std::uint64_t rebuilds = value(Counter::StoreIndexRebuild);
    SharedStore store(testOpts(dir, 150));
    EXPECT_EQ(value(Counter::StoreIndexRebuild), rebuilds + 1);
    // The open's own budget pass used the rebuilt recency: the aged
    // entry was the victim.
    EXPECT_FALSE(fileExists(store.entryPath("old.ent")));
    EXPECT_TRUE(fileExists(store.entryPath("new.ent")));
}

TEST(SharedStore, IndexTempsArePerProcessAndReaped)
{
    // Index saves write "store.index.tmp.<pid>", so two processes
    // sharing a store never truncate each other's temp, and a temp
    // orphaned by a dead process is reaped at the next open.
    const std::string dir = freshDir("bds_shared_index_tmp");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    // A squatter on a shared, pid-less temp name blocks nothing.
    ASSERT_EQ(::mkdir((dir + "/store.index.tmp").c_str(), 0777), 0);
    const pid_t child = ::fork();
    if (child == 0)
        ::_exit(0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    const std::string orphan =
        dir + "/store.index.tmp." + std::to_string(child);
    {
        std::ofstream f(orphan, std::ios::trunc);
        f << "BDSINDEX 1\nentr";
    }
    // A tail too long for any pid is not a pid: left alone.
    const std::string foreign = dir + "/x.tmp.99999999999999999999999";
    std::ofstream(foreign).put('x');

    SharedStore store(testOpts(dir));
    EXPECT_FALSE(fileExists(orphan));
    EXPECT_TRUE(fileExists(foreign));
    ASSERT_TRUE(store.publish("a.ent", kPayload));
    EXPECT_FALSE(fileExists(dir + "/store.index.tmp."
                            + std::to_string(::getpid())));
    std::ifstream f(dir + "/store.index", std::ios::binary);
    const std::string index((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(index, "BDSINDEX 1\nentries 1\n1 100 a.ent\nEND\n");
}

TEST(SharedStore, OverBudgetStateIsRepairedAtOpen)
{
    // A store killed mid-evict (or whose budget was lowered) is over
    // budget with a stale index; the next open restores the
    // invariant from a directory rescan.
    const std::string dir = freshDir("bds_shared_repair");
    {
        SharedStore store(testOpts(dir)); // unbounded
        ASSERT_TRUE(store.publish("a.ent", kPayload));
        ASSERT_TRUE(store.publish("b.ent", kPayload));
        ASSERT_TRUE(store.publish("c.ent", kPayload));
    }
    // Stale index: one indexed file already vanished (the crash got
    // through the unlink but not the index rewrite).
    ASSERT_EQ(std::remove((dir + "/b.ent").c_str()), 0);

    SharedStore store(testOpts(dir, 150));
    std::uint64_t total = 0;
    for (const char *name : {"a.ent", "b.ent", "c.ent"})
        if (fileExists(store.entryPath(name)))
            total += kPayload.size();
    EXPECT_LE(total, 150u);
    // The survivor is readable — repair never drops a valid entry
    // below the budget line.
    std::string bytes;
    EXPECT_TRUE(store.read("c.ent", &bytes));
    EXPECT_EQ(bytes, kPayload);
}

TEST(SharedStore, InjectedEnospcDegradesThenHeals)
{
    DisarmGuard guard;
    SharedStore store(testOpts(freshDir("bds_shared_enospc")));

    FaultOptions fault;
    fault.ioAt = "store.enospc";
    fault.attempts = 1; // exactly one fire, then the disk "recovers"
    FaultInjector::global().arm(fault);

    const std::uint64_t downs = value(Counter::StoreDown);
    const std::uint64_t heals = value(Counter::StoreHeal);
    EXPECT_FALSE(store.publish("a.ent", kPayload));
    EXPECT_TRUE(store.down());
    EXPECT_EQ(value(Counter::StoreDown), downs + 1);
    EXPECT_FALSE(fileExists(store.entryPath("a.ent")));

    // The injector's fire budget is spent: the next operation's heal
    // probe succeeds and the publish lands. Self-healing, no restart.
    EXPECT_TRUE(store.publish("a.ent", kPayload));
    EXPECT_FALSE(store.down());
    EXPECT_EQ(value(Counter::StoreHeal), heals + 1);
    std::string bytes;
    EXPECT_TRUE(store.read("a.ent", &bytes));
    EXPECT_EQ(bytes, kPayload);
}

TEST(SharedStore, DownStoreMissesEvenWhenTheEntryExists)
{
    DisarmGuard guard;
    SharedStoreOptions opts = testOpts(freshDir("bds_shared_down_read"));
    opts.healProbeMs = 60000; // stay down for the whole test
    SharedStore store(opts);
    ASSERT_TRUE(store.publish("a.ent", kPayload));

    FaultOptions fault;
    fault.ioAt = "store.enospc";
    fault.attempts = 1;
    FaultInjector::global().arm(fault);
    EXPECT_FALSE(store.publish("b.ent", kPayload));
    ASSERT_TRUE(store.down());

    std::string bytes;
    EXPECT_TRUE(fileExists(store.entryPath("a.ent")));
    EXPECT_FALSE(store.read("a.ent", &bytes));
}

TEST(SharedStore, InjectedRenameFailureLeavesNoTempLitter)
{
    DisarmGuard guard;
    SharedStore store(testOpts(freshDir("bds_shared_rename")));

    FaultOptions fault;
    fault.ioAt = "store.rename";
    fault.attempts = 1;
    FaultInjector::global().arm(fault);

    EXPECT_FALSE(store.publish("a.ent", kPayload));
    EXPECT_TRUE(store.down());
    // The fsynced temp file was cleaned up on the failed publish.
    std::ostringstream tmp;
    tmp << store.entryPath("a.ent") << ".tmp." << ::getpid();
    EXPECT_FALSE(fileExists(tmp.str()));

    EXPECT_TRUE(store.publish("a.ent", kPayload));
    EXPECT_FALSE(store.down());
}

TEST(SharedStore, InjectedLeaseFailureFallsBackToUncoordinated)
{
    DisarmGuard guard;
    SharedStore store(testOpts(freshDir("bds_shared_leasefail")));

    FaultOptions fault;
    fault.ioAt = "store.lease";
    fault.attempts = 1;
    FaultInjector::global().arm(fault);

    // No lease, no entry: the caller computes without coordination —
    // correctness over deduplication.
    FlightTicket ticket = store.singleFlight("a.ent");
    EXPECT_FALSE(ticket.lease);
    EXPECT_FALSE(ticket.entryAppeared);
    EXPECT_TRUE(store.down());

    // And the machinery comes back once the fault clears.
    FlightTicket again = store.singleFlight("a.ent");
    EXPECT_TRUE(again.lease);
    EXPECT_FALSE(store.down());
}

TEST(SharedStore, TwoProcessesSingleFlightOneCompute)
{
    const std::string dir = freshDir("bds_shared_fork");
    const SharedStoreOptions opts = testOpts(dir);

    int sync[2];
    ASSERT_EQ(::pipe(sync), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: the leader. Take the lease, tell the parent, hold
        // it across a slow "compute", publish, then die abruptly
        // (_exit skips the release — the parent-side protocol must
        // not depend on a graceful unlock).
        SharedStore mine(opts);
        FlightTicket ticket = mine.singleFlight("cell.ent");
        const char ok = ticket.lease ? '1' : '0';
        (void)!::write(sync[1], &ok, 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        const bool published = mine.publish("cell.ent", kPayload);
        ::_exit(ok == '1' && published ? 0 : 1);
    }
    ::close(sync[1]);
    char ok = '0';
    ASSERT_EQ(::read(sync[0], &ok, 1), 1);
    ::close(sync[0]);
    ASSERT_EQ(ok, '1'); // the child really holds the lease

    // Parent: a second daemon on the same directory. Its
    // single-flight must wait out the child's lease and come back
    // with the published entry instead of a license to recompute.
    SharedStore store(opts);
    FlightTicket ticket = store.singleFlight("cell.ent");
    EXPECT_TRUE(ticket.entryAppeared || ticket.lease);

    std::string bytes;
    EXPECT_TRUE(store.read("cell.ent", &bytes));
    EXPECT_EQ(bytes, kPayload);

    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

} // namespace
} // namespace bds
