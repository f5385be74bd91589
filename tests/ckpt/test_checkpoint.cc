/**
 * @file
 * The checkpoint container and disk cache, and their hardening
 * contract: a round trip is exact; a truncated file, a flipped
 * checksum byte, a foreign schema version, or a wrong-machine /
 * wrong-key entry is a typed Error(Io) / Error(InvalidConfig) —
 * never UB, never silently restored state.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "fault/error.h"
#include "trace/recorder.h"

namespace {

using bds::CheckpointCache;
using bds::CheckpointEntry;
using bds::CheckpointKey;
using bds::ckptStats;
using bds::CkptStats;
using bds::Error;
using bds::ErrorCode;
using bds::readCheckpoint;
using bds::resetCkptStats;
using bds::TraceRecorder;
using bds::writeCheckpoint;

CheckpointKey
makeKey()
{
    CheckpointKey key;
    key.configHash = "0123456789abcdef";
    key.machineSlug = "default";
    key.machineText = "cores=4 l1d=32K l2=256K l3=12M";
    key.workload = "H-Sort";
    key.node = 0;
    return key;
}

CheckpointEntry
makeEntry()
{
    CheckpointEntry entry;
    entry.key = makeKey();
    entry.interval = 7;
    entry.state = std::string("state-payload-") + "\x01\x02\xff\x00"
        + "-with-binary-bytes";
    return entry;
}

std::string
serialized(const CheckpointEntry &entry)
{
    return writeCheckpoint(entry);
}

/** readCheckpoint over in-memory bytes, returning the typed code. */
ErrorCode
parseCode(const std::string &bytes, const CheckpointKey &key,
          std::uint64_t interval)
{
    try {
        readCheckpoint(bytes, "test-entry", key, interval);
    } catch (const Error &e) {
        return e.code();
    }
    return ErrorCode::None;
}

TEST(CheckpointContainer, RoundTripIsExact)
{
    const CheckpointEntry entry = makeEntry();
    const CheckpointEntry back = readCheckpoint(
        serialized(entry), "round-trip", entry.key, entry.interval);
    EXPECT_EQ(back.state, entry.state);
    EXPECT_EQ(back.key.configHash, entry.key.configHash);
    EXPECT_EQ(back.key.machineSlug, entry.key.machineSlug);
    EXPECT_EQ(back.key.machineText, entry.key.machineText);
    EXPECT_EQ(back.key.workload, entry.key.workload);
    EXPECT_EQ(back.key.node, entry.key.node);
    EXPECT_EQ(back.interval, entry.interval);
}

TEST(CheckpointContainer, WriterBytesArePinned)
{
    // The whole container, header included, for a tiny state and a
    // two-event slice (one op, one DMA fill). The same text must
    // parse: files already on disk stay readable.
    CheckpointEntry entry = makeEntry();
    entry.key.machineText = "cores=4 l1d=32K";
    entry.key.node = 1;
    entry.state = "tiny";
    TraceRecorder slice;
    bds::MicroOp op;
    op.cls = bds::OpClass::Load;
    op.mode = bds::Mode::Kernel;
    op.ip = 0x401000;
    op.addr = 0x7f0000000040ULL;
    op.dependsOnPrevLoad = true;
    slice.consume(2, op);
    slice.recordDma(0x1000, 64);
    entry.ops = slice.encode();
    const std::string golden =
        std::string("BDSCKPT 3\n"
                    "hash 0123456789abcdef\n"
                    "slug default\n"
                    "machine_bytes 15\n"
                    "cores=4 l1d=32K"
                    "workload_bytes 6\n"
                    "H-Sort"
                    "node 1\n"
                    "interval 7\n"
                    "state_sum 41e843ecfccd719a\n"
                    "state_bytes 4\n"
                    "tiny"
                    "ops_sum ab6bcedd6fd266b2\n"
                    "ops_bytes 40\n")
        + std::string("\x00\x10\x40\x00\x00\x00\x00\x00"
                      "\x40\x00\x00\x00\x00\x7f\x00\x00"
                      "\x02\x00\x01\x06"
                      "\x00\x10\x00\x00\x00\x00\x00\x00"
                      "\x40\x00\x00\x00\x00\x00\x00\x00"
                      "\x00\x00\x00\x08",
                      40)
        + "END\n";
    EXPECT_EQ(serialized(entry), golden);
    const CheckpointEntry back =
        readCheckpoint(golden, "golden", entry.key, entry.interval);
    EXPECT_EQ(back.state, "tiny");
    EXPECT_EQ(back.ops, entry.ops);
}

TEST(CheckpointContainer, TruncationAnywhereIsTypedIo)
{
    const CheckpointEntry entry = makeEntry();
    const std::string bytes = serialized(entry);
    // Chop at several depths: inside the header lines, inside the
    // state payload, and just before the END sentinel.
    for (std::size_t keep :
         {std::size_t(3), bytes.size() / 4, bytes.size() / 2,
          bytes.size() - 5}) {
        EXPECT_EQ(parseCode(bytes.substr(0, keep), entry.key,
                            entry.interval),
                  ErrorCode::Io)
            << "kept " << keep << " of " << bytes.size() << " bytes";
    }
    // The END sentinel is the last line: anything after it is damage.
    EXPECT_EQ(parseCode(bytes + "x", entry.key, entry.interval),
              ErrorCode::Io);
}

TEST(CheckpointContainer, FlippedPayloadByteFailsTheChecksum)
{
    // Three 32-byte checksum blocks plus a 5-byte tail, so the flips
    // cover every lane of the word-wise body and every tail byte.
    CheckpointEntry entry = makeEntry();
    entry.state.resize(3 * 32 + 5);
    for (std::size_t i = 0; i < entry.state.size(); ++i)
        entry.state[i] = static_cast<char>(i * 37 + 11);
    const std::string bytes = serialized(entry);
    const std::string marker =
        "state_bytes " + std::to_string(entry.state.size()) + "\n";
    const std::size_t pos = bytes.find(marker);
    ASSERT_NE(pos, std::string::npos);
    const std::size_t begin = pos + marker.size();
    ASSERT_EQ(parseCode(bytes, entry.key, entry.interval),
              ErrorCode::None);
    for (std::size_t off = 0; off < entry.state.size(); ++off) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = bytes;
            flipped[begin + off] ^= static_cast<char>(1 << bit);
            EXPECT_EQ(parseCode(flipped, entry.key, entry.interval),
                      ErrorCode::Io)
                << "bit " << bit << " of payload byte " << off;
        }
    }
}

TEST(CheckpointContainer, ForeignVersionIsTypedIo)
{
    const CheckpointEntry entry = makeEntry();
    std::string bytes = serialized(entry);
    const std::string header =
        "BDSCKPT " + std::to_string(bds::kCheckpointVersion) + "\n";
    ASSERT_EQ(bytes.rfind(header, 0), 0u) << bytes.substr(0, 16);
    bytes.replace(0, header.size() - 1, "BDSCKPT 999");
    EXPECT_EQ(parseCode(bytes, entry.key, entry.interval),
              ErrorCode::Io);

    std::string garbage = "not a checkpoint at all\n";
    EXPECT_EQ(parseCode(garbage, entry.key, entry.interval),
              ErrorCode::Io);
}

TEST(CheckpointContainer, WrongMachineIsInvalidConfig)
{
    const CheckpointEntry entry = makeEntry();
    const std::string bytes = serialized(entry);

    CheckpointKey other_slug = entry.key;
    other_slug.machineSlug = "l1-16k";
    EXPECT_EQ(parseCode(bytes, other_slug, entry.interval),
              ErrorCode::InvalidConfig);

    CheckpointKey other_text = entry.key;
    other_text.machineText = "cores=4 l1d=16K l2=256K l3=12M";
    EXPECT_EQ(parseCode(bytes, other_text, entry.interval),
              ErrorCode::InvalidConfig);
}

TEST(CheckpointContainer, WrongKeyOrIntervalIsInvalidConfig)
{
    const CheckpointEntry entry = makeEntry();
    const std::string bytes = serialized(entry);

    CheckpointKey other_hash = entry.key;
    other_hash.configHash = "fedcba9876543210";
    EXPECT_EQ(parseCode(bytes, other_hash, entry.interval),
              ErrorCode::InvalidConfig);

    CheckpointKey other_workload = entry.key;
    other_workload.workload = "S-Grep";
    EXPECT_EQ(parseCode(bytes, other_workload, entry.interval),
              ErrorCode::InvalidConfig);

    EXPECT_EQ(parseCode(bytes, entry.key, entry.interval + 1),
              ErrorCode::InvalidConfig);
}

TEST(CheckpointCacheTest, EmptyDirectoryIsInvalidConfig)
{
    try {
        CheckpointCache cache("");
        FAIL() << "empty cache dir was accepted";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
    }
}

TEST(CheckpointCacheTest, StoreLoadRoundTripCountsTraffic)
{
    const std::string dir =
        ::testing::TempDir() + "bds_ckpt_cache_test";
    CheckpointCache cache(dir);
    const CheckpointEntry entry = makeEntry();
    std::remove(cache.path(entry.key, entry.interval).c_str());

    resetCkptStats();
    cache.store(entry.key, entry.interval, entry.state);
    std::string state;
    ASSERT_TRUE(cache.load(entry.key, entry.interval, &state));
    EXPECT_EQ(state, entry.state);

    // An absent interval is a clean false, not an exception.
    EXPECT_FALSE(cache.load(entry.key, entry.interval + 1, &state));

    const CkptStats s = ckptStats();
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.bytesWritten, entry.state.size());
    EXPECT_EQ(s.bytesRead, entry.state.size());

    std::remove(cache.path(entry.key, entry.interval).c_str());
}

TEST(CheckpointCacheTest, CorruptFileOnDiskIsTypedIoNotUB)
{
    const std::string dir =
        ::testing::TempDir() + "bds_ckpt_cache_corrupt";
    CheckpointCache cache(dir);
    const CheckpointEntry entry = makeEntry();
    const std::string path = cache.path(entry.key, entry.interval);
    cache.store(entry.key, entry.interval, entry.state);

    // Truncate the published entry to half its size in place.
    std::string bytes = serialized(entry);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() / 2);
    }
    std::string state;
    try {
        cache.load(entry.key, entry.interval, &state);
        FAIL() << "truncated on-disk checkpoint loaded";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Io);
    }
    std::remove(path.c_str());
}

} // namespace
