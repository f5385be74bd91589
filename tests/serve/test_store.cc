/**
 * @file
 * Result-store tests: on-disk entry round-trip, the hardening
 * contract (corrupt/truncated entries are typed Io errors and
 * getOrCompute recomputes transparently), quarantined results never
 * cached, and the single-flight guarantee that concurrent same-key
 * requests compute exactly once.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "fault/error.h"
#include "serve/confighash.h"
#include "serve/store.h"
#include "store/record.h"

#include "../mutator.h"

namespace bds {
namespace {

/** RAII store directory under the test temp dir, wiped on entry. */
class StoreDir
{
  public:
    explicit StoreDir(const std::string &name)
        : dir_(::testing::TempDir() + name)
    {
        // Entries are flat "<hash>.result" files: removing them and
        // the directory is a full wipe.
        wipe();
    }
    ~StoreDir() { wipe(); }
    const std::string &dir() const { return dir_; }

  private:
    void wipe()
    {
        for (const std::string &hash : knownKeys())
            std::remove((dir_ + "/" + hash + ".result").c_str());
        ::rmdir(dir_.c_str());
    }
    static std::vector<std::string> knownKeys()
    {
        return {"00000000000000aa", "00000000000000bb",
                "00000000000000cc", "00000000000000dd",
                "00000000000000ee"};
    }
    std::string dir_;
};

ResultEntry
sampleEntry(const std::string &hashHex)
{
    ResultEntry entry;
    entry.hashHex = hashHex;
    entry.canonicalConfig = "bds-runconfig-v1\nscale=quick\n";
    entry.names = {"H-Sort", "S-Grep"};
    entry.csv = "workload,LOAD\nH-Sort,0.375196\nS-Grep,0.179149\n";
    entry.manifestJson = "{\"tool\": \"test\"}\n";
    return entry;
}

TEST(ServeStore, EntryRoundTripsThroughTheOnDiskFormat)
{
    const ResultEntry in = sampleEntry("00000000000000aa");
    const ResultEntry out = readResultEntry(writeResultEntry(in), "test");
    EXPECT_EQ(out.hashHex, in.hashHex);
    EXPECT_EQ(out.canonicalConfig, in.canonicalConfig);
    EXPECT_EQ(out.names, in.names);
    EXPECT_EQ(out.csv, in.csv);
    EXPECT_EQ(out.manifestJson, in.manifestJson);
}

TEST(ServeStore, WriterBytesArePinned)
{
    // The on-disk entry, byte for byte; the same text must parse, so
    // entries already on disk stay readable.
    const std::string golden = "BDSRESULT 3\n"
                               "hash 00000000000000aa\n"
                               "config_bytes 29\n"
                               "bds-runconfig-v1\nscale=quick\n"
                               "names 2\n"
                               "H-Sort\n"
                               "S-Grep\n"
                               "manifest_bytes 17\n"
                               "{\"tool\": \"test\"}\n"
                               "csv_sum f2096f08bbee2195\n"
                               "csv_bytes 46\n"
                               "workload,LOAD\nH-Sort,0.375196\n"
                               "S-Grep,0.179149\n"
                               "END\n";
    const ResultEntry in = sampleEntry("00000000000000aa");
    EXPECT_EQ(writeResultEntry(in), golden);
    const ResultEntry out = readResultEntry(golden, "golden");
    EXPECT_EQ(out.canonicalConfig, in.canonicalConfig);
    EXPECT_EQ(out.names, in.names);
    EXPECT_EQ(out.manifestJson, in.manifestJson);
    EXPECT_EQ(out.csv, in.csv);
}

TEST(ResultEntryMutation, MutantsParseOrRaiseTypedIo)
{
    // A deterministic mutational fuzz of the entry parser: fixed seed
    // and budget, so every run tries the same mutants. Each one
    // parses or is Error(Io) — never another code, never an untyped
    // exception.
    const std::string file = writeResultEntry(sampleEntry("00000000000000aa"));
    const std::vector<std::string> size_keys = {
        "config_bytes ", "names ", "manifest_bytes ", "csv_bytes "};
    Mutator mut(0x72657375ULL);
    std::size_t parsed = 0, typed = 0;
    constexpr int kMutants = 2000;
    for (int i = 0; i < kMutants; ++i) {
        const unsigned op = static_cast<unsigned>(mut.below(4));
        std::string bytes = file;
        if (op < 3)
            mut.mutate(bytes, op);
        else
            mut.inflateField(bytes, size_keys);
        const std::string what = "mutant " + std::to_string(i);
        try {
            readResultEntry(bytes, what);
            ++parsed;
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::Io) << what << ": " << e.what();
            ++typed;
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": untyped " << e.what();
        }
    }
    EXPECT_EQ(parsed + typed, static_cast<std::size_t>(kMutants));
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(typed, kMutants / 2u);
}

TEST(ServeStore, StoreAndLoadThroughTheDirectory)
{
    StoreDir tmp("bds_store_roundtrip");
    ResultStore store(tmp.dir());
    const ResultEntry in = sampleEntry("00000000000000aa");
    store.store(in);

    ResultEntry out;
    ASSERT_TRUE(store.load(in.hashHex, &out));
    EXPECT_EQ(out.csv, in.csv);
    // Absent keys are a false return, not an error.
    EXPECT_FALSE(store.load("00000000000000bb", &out));
}

TEST(ServeStore, CorruptEntriesAreTypedIoErrors)
{
    StoreDir tmp("bds_store_corrupt");
    ResultStore store(tmp.dir());
    const ResultEntry in = sampleEntry("00000000000000aa");
    store.store(in);
    const std::string path = store.entryPath(in.hashHex);

    auto expectIo = [&](const char *why) {
        ResultEntry out;
        try {
            store.load(in.hashHex, &out);
            FAIL() << "expected Error(Io): " << why;
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::Io) << why;
        }
    };

    // Flip a payload byte: checksum mismatch.
    {
        std::ifstream f(path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
        const std::size_t pos = bytes.find("0.375196");
        ASSERT_NE(pos, std::string::npos);
        bytes[pos] = '9';
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    expectIo("corrupt csv payload");

    // Truncate: missing END sentinel.
    store.store(in);
    {
        std::ifstream f(path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() - 10));
    }
    expectIo("truncated entry");

    // Foreign bytes: bad magic.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "not a result entry\n";
    }
    expectIo("bad magic");

    // An entry keyed to a different hash (renamed file).
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << writeResultEntry(sampleEntry("00000000000000bb"));
    }
    expectIo("foreign key");

    // A corrupt size field too large to allocate must be a typed Io
    // error, not a std::length_error/bad_alloc that dodges the
    // corrupt-entry recovery.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "BDSRESULT 3\nhash 00000000000000aa\n"
            << "config_bytes 18446744073709551615\n";
    }
    expectIo("implausible declared size");
}

/**
 * A retired entry layout: v1 (keyed before the machine-geometry
 * axis) or v2 (byte-serial FNV-1a `csv_fnv` over the CSV), with the
 * body a writer of that version produced.
 */
std::string
retiredEntry(const ResultEntry &entry, unsigned version)
{
    std::string bytes = writeResultEntry(entry);
    const std::string v3 = "BDSRESULT 3\n";
    EXPECT_EQ(bytes.rfind(v3, 0), 0u);
    bytes.replace(0, v3.size(),
                  "BDSRESULT " + std::to_string(version) + "\n");
    const std::string sum = "csv_sum " + toHex64(stateChecksum(entry.csv));
    const std::size_t at = bytes.find(sum);
    EXPECT_NE(at, std::string::npos);
    bytes.replace(at, sum.size(),
                  "csv_fnv " + toHex64(fnv1a64(entry.csv)));
    return bytes;
}

TEST(ServeStore, RetiredVersionsAreRejectedAndRecomputedOnce)
{
    // Store format v1 predates the machine-geometry axis: its cells
    // were keyed by confighash schema v1 and say nothing about what
    // machine produced them. v2 checksummed the CSV byte-serially.
    // Either on disk must be a typed Io error from load, and
    // getOrCompute must recompute and overwrite it transparently with
    // a v3 entry, exactly once — never serve it.
    for (unsigned version : {1u, 2u}) {
        SCOPED_TRACE("BDSRESULT " + std::to_string(version));
        StoreDir tmp("bds_store_v" + std::to_string(version));
        ResultStore store(tmp.dir());
        const ResultEntry good = sampleEntry("00000000000000aa");
        const std::string path = store.entryPath(good.hashHex);
        ASSERT_TRUE(store.store(good));
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << retiredEntry(good, version);
        }

        ResultEntry out;
        try {
            store.load(good.hashHex, &out);
            FAIL() << "expected Error(Io) for a retired entry";
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::Io);
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos)
                << e.what();
        }

        int computes = 0;
        auto compute = [&] {
            ++computes;
            ComputedResult r;
            r.entry = good;
            return r;
        };
        bool hit = true;
        ComputedResult got = store.getOrCompute(good.hashHex, compute, &hit);
        EXPECT_EQ(computes, 1);
        EXPECT_FALSE(hit);
        EXPECT_EQ(got.entry.csv, good.csv);

        // The recompute rewrote the file as v3, so the next request
        // is a hit and computes nothing.
        std::ifstream f(path, std::ios::binary);
        const std::string bytes((std::istreambuf_iterator<char>(f)),
                                std::istreambuf_iterator<char>());
        EXPECT_EQ(bytes, writeResultEntry(good));
        got = store.getOrCompute(good.hashHex, compute, &hit);
        EXPECT_EQ(computes, 1);
        EXPECT_TRUE(hit);
        EXPECT_EQ(got.entry.csv, good.csv);
    }
}

TEST(ServeStore, GetOrComputeRecomputesCorruptEntriesTransparently)
{
    StoreDir tmp("bds_store_recompute");
    ResultStore store(tmp.dir());
    const ResultEntry good = sampleEntry("00000000000000aa");
    store.store(good);

    // Corrupt the entry on disk.
    {
        std::ofstream out(store.entryPath(good.hashHex),
                          std::ios::binary | std::ios::trunc);
        out << "garbage\n";
    }

    int computes = 0;
    bool hit = true;
    ComputedResult got = store.getOrCompute(
        good.hashHex,
        [&] {
            ++computes;
            ComputedResult r;
            r.entry = good;
            return r;
        },
        &hit);
    EXPECT_EQ(computes, 1);
    EXPECT_FALSE(hit);
    EXPECT_EQ(got.entry.csv, good.csv);

    // The recomputed entry replaced the corrupt file.
    ResultEntry reloaded;
    ASSERT_TRUE(store.load(good.hashHex, &reloaded));
    EXPECT_EQ(reloaded.csv, good.csv);
}

TEST(ServeStore, UncacheableResultsAreServedButNeverStored)
{
    StoreDir tmp("bds_store_uncacheable");
    ResultStore store(tmp.dir());
    const ResultEntry entry = sampleEntry("00000000000000cc");

    bool hit = true;
    ComputedResult got = store.getOrCompute(
        entry.hashHex,
        [&] {
            ComputedResult r;
            r.entry = entry;
            r.cacheable = false; // e.g. a quarantined sweep
            r.quarantined = {"M-Bayes"};
            return r;
        },
        &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(got.entry.csv, entry.csv);
    EXPECT_EQ(got.quarantined,
              std::vector<std::string>{"M-Bayes"});

    ResultEntry out;
    EXPECT_FALSE(store.load(entry.hashHex, &out));
}

TEST(ServeStore, SingleFlightFollowersSeeQuarantinedResults)
{
    StoreDir tmp("bds_store_follower_quarantine");
    ResultStore store(tmp.dir());
    const ResultEntry entry = sampleEntry("00000000000000ee");

    // Every caller of an uncacheable (quarantined) compute — leader
    // or single-flight follower — must see the quarantine list and
    // no hit: the payload is survivor-only, not the full-suite cell.
    constexpr int kThreads = 6;
    std::atomic<int> falseHits{0};
    std::atomic<int> sawQuarantine{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&] {
            bool hit = true;
            ComputedResult got = store.getOrCompute(
                entry.hashHex,
                [&] {
                    // Widen the race window so followers really wait.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    ComputedResult r;
                    r.entry = entry;
                    r.cacheable = false;
                    r.quarantined = {"M-Bayes"};
                    return r;
                },
                &hit);
            EXPECT_EQ(got.entry.csv, entry.csv);
            if (!hit)
                ++falseHits;
            if (got.quarantined
                == std::vector<std::string>{"M-Bayes"})
                ++sawQuarantine;
        });
    for (std::thread &t : pool)
        t.join();

    EXPECT_EQ(falseHits.load(), kThreads);
    EXPECT_EQ(sawQuarantine.load(), kThreads);
    ResultEntry out;
    EXPECT_FALSE(store.load(entry.hashHex, &out));
}

TEST(ServeStore, ConcurrentSameKeyRequestsComputeOnce)
{
    StoreDir tmp("bds_store_singleflight");
    ResultStore store(tmp.dir());
    const ResultEntry entry = sampleEntry("00000000000000dd");

    std::atomic<int> computes{0};
    std::atomic<int> hits{0};
    constexpr int kThreads = 8;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&] {
            bool hit = false;
            ComputedResult got = store.getOrCompute(
                entry.hashHex,
                [&] {
                    ++computes;
                    // Widen the race window so waiters really wait.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    ComputedResult r;
                    r.entry = entry;
                    return r;
                },
                &hit);
            EXPECT_EQ(got.entry.csv, entry.csv);
            if (hit)
                ++hits;
        });
    for (std::thread &t : pool)
        t.join();

    // Exactly one leader computed; every waiter (and no one else)
    // observed a hit. A loser-side reload may also report a hit, so
    // the bound is >= kThreads - 1.
    EXPECT_EQ(computes.load(), 1);
    EXPECT_GE(hits.load(), kThreads - 1);
}

TEST(ServeStore, TwoStoreInstancesSingleFlightThroughTheLease)
{
    // Two ResultStore instances on one directory model two daemon
    // processes sharing a cache: the in-process Flight map cannot
    // see across instances, so deduplication here rides entirely on
    // the on-disk lease protocol (src/store/lease.h).
    StoreDir tmp("bds_store_two_instances");
    ResultStore first(tmp.dir());
    ResultStore second(tmp.dir());
    const ResultEntry entry = sampleEntry("00000000000000ee");

    std::atomic<int> computes{0};
    auto compute = [&] {
        ++computes;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        ComputedResult r;
        r.entry = entry;
        return r;
    };

    bool leaderHit = true, followerHit = false;
    std::thread leader([&] {
        ComputedResult got =
            first.getOrCompute(entry.hashHex, compute, &leaderHit);
        EXPECT_EQ(got.entry.csv, entry.csv);
    });
    // Let the leader take the lease before the follower arrives.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ComputedResult got =
        second.getOrCompute(entry.hashHex, compute, &followerHit);
    leader.join();

    EXPECT_EQ(computes.load(), 1);
    EXPECT_FALSE(leaderHit);
    EXPECT_TRUE(followerHit);
    EXPECT_EQ(got.entry.csv, entry.csv);
}

TEST(ServeStore, ComputeExceptionsPropagateToEveryWaiter)
{
    StoreDir tmp("bds_store_exceptions");
    ResultStore store(tmp.dir());

    std::atomic<int> failures{0};
    constexpr int kThreads = 4;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&] {
            bool hit = false;
            try {
                store.getOrCompute(
                    "00000000000000ee",
                    [&]() -> ComputedResult {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(30));
                        BDS_RAISE(ErrorCode::InjectedFault,
                                  "compute failed");
                    },
                    &hit);
            } catch (const Error &e) {
                EXPECT_EQ(e.code(), ErrorCode::InjectedFault);
                ++failures;
            }
        });
    for (std::thread &t : pool)
        t.join();

    // Every caller saw the failure (leader threw, waiters got the
    // rethrown exception, late arrivals recomputed and threw again),
    // and nothing was cached.
    EXPECT_EQ(failures.load(), kThreads);
    ResultEntry out;
    EXPECT_FALSE(store.load("00000000000000ee", &out));
}

TEST(ServeStore, EmptyDirectoryIsInvalidConfig)
{
    try {
        ResultStore store("");
        FAIL() << "expected Error(InvalidConfig)";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
    }
}

} // namespace
} // namespace bds
