/**
 * @file
 * Lease protocol tests: exclusive acquisition, heartbeat publishing,
 * cancel-ended waits, and the two deterministic takeover paths —
 * dead-pid (the stamped holder no longer exists) and wedged-holder
 * (a live pid whose heartbeat counter stops advancing).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "fault/error.h"
#include "store/lease.h"

#include "../mutator.h"

namespace bds {
namespace {

std::string
leasePath(const std::string &name)
{
    return ::testing::TempDir() + name + ".lease";
}

/** Fast-poll options so waits settle in milliseconds. */
LeaseOptions
fastOpts()
{
    LeaseOptions opts;
    opts.heartbeatMs = 20;
    opts.staleMs = 150;
    opts.pollMinMs = 1;
    opts.pollMaxMs = 10;
    return opts;
}

/** A pid that is guaranteed dead: fork a child and reap it. */
long
deadPid()
{
    const pid_t pid = ::fork();
    if (pid == 0)
        ::_exit(0);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return static_cast<long>(pid);
}

TEST(StoreLease, AcquireIsExclusiveAndReleaseFreesTheFile)
{
    const std::string path = leasePath("bds_lease_excl");
    std::remove(path.c_str());

    std::unique_ptr<Lease> held = tryAcquireLease(path, fastOpts());
    ASSERT_TRUE(held);

    // Second acquire in the same (or any) process: busy, not an error.
    EXPECT_FALSE(tryAcquireLease(path, fastOpts()));

    LeaseProbe probe;
    ASSERT_TRUE(readLease(path, &probe));
    EXPECT_TRUE(probe.parsed);
    EXPECT_EQ(probe.pid, static_cast<long>(::getpid()));

    held->release();
    EXPECT_FALSE(readLease(path, &probe));

    // Released means re-acquirable.
    std::unique_ptr<Lease> again = tryAcquireLease(path, fastOpts());
    EXPECT_TRUE(again);
    again.reset(); // destructor releases too
    EXPECT_FALSE(readLease(path, &probe));
}

TEST(StoreLease, HeartbeatAdvancesTheBeatCounter)
{
    const std::string path = leasePath("bds_lease_beat");
    std::remove(path.c_str());

    std::unique_ptr<Lease> held = tryAcquireLease(path, fastOpts());
    ASSERT_TRUE(held);
    LeaseProbe first;
    ASSERT_TRUE(readLease(path, &first));

    // Several heartbeat periods later the published beat has moved:
    // "alive and making progress" is observable from outside.
    LeaseProbe later = first;
    for (int tries = 0; tries < 100 && later.beat == first.beat;
         ++tries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ASSERT_TRUE(readLease(path, &later));
    }
    EXPECT_GT(later.beat, first.beat);
    held->release();
}

/** The bytes of the file at `path`. */
std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
}

TEST(StoreLease, BodyBytesArePinned)
{
    const std::string path = leasePath("bds_lease_bytes");
    std::remove(path.c_str());
    const std::string pid = std::to_string(::getpid());

    std::unique_ptr<Lease> held = tryAcquireLease(path, fastOpts());
    ASSERT_TRUE(held);
    EXPECT_EQ(slurp(path), "BDSLEASE 1\npid " + pid + "\nbeat 0\n");

    // The heartbeat republishes the same layout (readLease accepts
    // nothing else) with the next beat.
    LeaseProbe probe;
    for (int tries = 0; tries < 100 && probe.beat == 0; ++tries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ASSERT_TRUE(readLease(path, &probe));
        ASSERT_TRUE(probe.parsed);
    }
    EXPECT_EQ(probe.pid, static_cast<long>(::getpid()));
    ASSERT_GT(probe.beat, 0u);
    held->release();
    EXPECT_FALSE(readLease(path, &probe));

    // The literal layout parses.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << "BDSLEASE 1\npid 4242\nbeat 9\n";
    }
    ASSERT_TRUE(readLease(path, &probe));
    EXPECT_TRUE(probe.parsed);
    EXPECT_EQ(probe.pid, 4242);
    EXPECT_EQ(probe.beat, 9u);
    std::remove(path.c_str());
}

TEST(LeaseMutation, MutantsParseOrReportUnparsed)
{
    // A deterministic mutational fuzz of readLease: fixed seed and
    // budget. A present file always reads (true); each mutant either
    // parses or comes back parsed=false — never an exception.
    const std::string path = leasePath("bds_lease_mutation");
    const std::string file = "BDSLEASE 1\npid 12345\nbeat 7\n";
    Mutator mut(0x6c656173ULL);
    std::size_t parsed = 0, unparsed = 0;
    constexpr int kMutants = 2000;
    for (int i = 0; i < kMutants; ++i) {
        const unsigned op = static_cast<unsigned>(mut.below(4));
        std::string bytes = file;
        if (op < 3)
            mut.mutate(bytes, op);
        else
            mut.inflateField(bytes, {"pid ", "beat "});
        {
            std::ofstream f(path, std::ios::binary | std::ios::trunc);
            f << bytes;
        }
        LeaseProbe probe;
        try {
            ASSERT_TRUE(readLease(path, &probe)) << "mutant " << i;
            ++(probe.parsed ? parsed : unparsed);
            if (probe.parsed)
                EXPECT_GE(probe.pid, 0) << "mutant " << i;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << ": threw " << e.what();
        }
    }
    std::remove(path.c_str());
    EXPECT_EQ(parsed + unparsed, static_cast<std::size_t>(kMutants));
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(unparsed, kMutants / 2u);
}

TEST(StoreLease, DeadHolderIsTakenOverImmediately)
{
    const std::string path = leasePath("bds_lease_dead");
    std::remove(path.c_str());

    // Forge a lease held by a pid that is definitely gone.
    const long corpse = deadPid();
    ASSERT_TRUE(pidVanished(corpse));
    {
        std::ofstream f(path, std::ios::trunc);
        f << "BDSLEASE 1\npid " << corpse << "\nbeat 7\n";
    }

    LeaseWaitStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<Lease> lease =
        acquireLease(path, fastOpts(), [] { return false; }, &stats);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    ASSERT_TRUE(lease);
    EXPECT_EQ(stats.takeovers, 1u);
    EXPECT_FALSE(stats.canceled);
    // Dead-pid takeover must not serve out the staleMs sentence.
    EXPECT_LT(ms, static_cast<double>(fastOpts().staleMs));
    lease->release();
}

TEST(StoreLease, WedgedHolderLosesTheLeaseAfterStaleMs)
{
    const std::string path = leasePath("bds_lease_wedged");
    std::remove(path.c_str());

    // A live pid (ours) with a heartbeat that never advances: the
    // wedged-holder picture. No Lease object exists, so nothing
    // republishes the beat.
    {
        std::ofstream f(path, std::ios::trunc);
        f << "BDSLEASE 1\npid " << ::getpid() << "\nbeat 3\n";
    }

    LeaseWaitStats stats;
    std::unique_ptr<Lease> lease =
        acquireLease(path, fastOpts(), [] { return false; }, &stats);
    ASSERT_TRUE(lease);
    EXPECT_GE(stats.takeovers, 1u);
    lease->release();
}

TEST(StoreLease, CancelEndsTheWaitWithoutALease)
{
    const std::string path = leasePath("bds_lease_cancel");
    std::remove(path.c_str());

    std::unique_ptr<Lease> held = tryAcquireLease(path, fastOpts());
    ASSERT_TRUE(held);

    // The holder is alive and heartbeating; the only way out of the
    // wait is the cancel predicate (the caller's entry appeared).
    int polls = 0;
    LeaseWaitStats stats;
    std::unique_ptr<Lease> lease = acquireLease(
        path, fastOpts(), [&polls] { return ++polls >= 3; }, &stats);
    EXPECT_FALSE(lease);
    EXPECT_TRUE(stats.canceled);
    EXPECT_EQ(stats.takeovers, 0u);
    held->release();
}

TEST(StoreLease, HolderThatPublishesBetweenPollsEndsTheWait)
{
    const std::string path = leasePath("bds_lease_publish");
    std::remove(path.c_str());

    std::unique_ptr<Lease> held = tryAcquireLease(path, fastOpts());
    ASSERT_TRUE(held);

    // One long poll sleep, so the holder's publish and release land
    // inside it: the first poll sees nothing, the create fails on the
    // live holder, and by the next poll the lease path is free and
    // the result is on disk. The wait must end canceled, not with a
    // lease the caller would only give back.
    LeaseOptions opts = fastOpts();
    opts.staleMs = 60000;
    opts.pollMinMs = 500;
    opts.pollMaxMs = 500;
    std::atomic<bool> published{false};
    std::atomic<int> polls{0};
    std::thread holder;
    LeaseWaitStats stats;
    std::unique_ptr<Lease> lease;
    EXPECT_NO_THROW(lease = acquireLease(
                        path, opts,
                        [&] {
                            if (++polls == 1)
                                holder = std::thread([&] {
                                    std::this_thread::sleep_for(
                                        std::chrono::milliseconds(100));
                                    published = true;
                                    held->release();
                                });
                            return published.load();
                        },
                        &stats));
    if (holder.joinable())
        holder.join();
    EXPECT_FALSE(lease);
    EXPECT_TRUE(stats.canceled);
    EXPECT_EQ(stats.takeovers, 0u);
    EXPECT_EQ(polls.load(), 2);
    LeaseProbe probe;
    EXPECT_FALSE(readLease(path, &probe)); // nobody took it
}

TEST(StoreLease, HolderThatDiedAfterPublishingEndsTheWait)
{
    const std::string path = leasePath("bds_lease_died_published");
    std::remove(path.c_str());

    // A holder that published and then died without releasing: its
    // lease still names a vanished pid. The takeover frees the path,
    // and the poll before the next create sees the published result.
    {
        std::ofstream f(path, std::ios::trunc);
        f << "BDSLEASE 1\npid " << deadPid() << "\nbeat 7\n";
    }
    bool published = false;
    int polls = 0;
    LeaseWaitStats stats;
    std::unique_ptr<Lease> lease = acquireLease(
        path, fastOpts(),
        [&] {
            ++polls;
            const bool seen = published;
            published = true; // lands just after the first look
            return seen;
        },
        &stats);
    EXPECT_FALSE(lease);
    EXPECT_TRUE(stats.canceled);
    EXPECT_EQ(stats.takeovers, 1u);
    EXPECT_EQ(polls, 2);
    LeaseProbe probe;
    EXPECT_FALSE(readLease(path, &probe));
}

TEST(StoreLease, ReleaseAfterForeignTakeoverIsHarmless)
{
    const std::string path = leasePath("bds_lease_foreign");
    std::remove(path.c_str());

    std::unique_ptr<Lease> held = tryAcquireLease(path, fastOpts());
    ASSERT_TRUE(held);

    // Simulate a challenger's takeover: the lease file is renamed
    // aside and removed while the original holder still exists.
    std::remove(path.c_str());
    held->release(); // must not throw or unlink anything foreign

    std::unique_ptr<Lease> next = tryAcquireLease(path, fastOpts());
    EXPECT_TRUE(next);
}

} // namespace
} // namespace bds
