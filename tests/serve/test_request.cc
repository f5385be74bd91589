/**
 * @file
 * Request-format tests: the text line protocol (strict parsing,
 * canonical rendering, round-trip with the binary form) and the
 * fixed-size binary request log (header + packed records, hardened
 * loading, the append-with-patched-count writer).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/schema.h"
#include "../mutator.h"
#include "serve/request.h"

namespace bds {
namespace {

/** RAII temp path, removed on scope exit. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(ServeRequest, RecordIsAFixedSizePod)
{
    // 40 bytes since log v2: the 32-byte v1 record grew a machine
    // index and a reserved word at the tail.
    EXPECT_EQ(sizeof(RequestRecord), 40u);
    EXPECT_TRUE(std::is_trivially_copyable<RequestRecord>::value);
}

TEST(ServeRequest, ParsesAMinimalLineWithDefaults)
{
    RequestRecord req = parseRequestLine("characterize");
    EXPECT_EQ(req.op, 0u);
    EXPECT_EQ(req.scale, 0u); // quick
    EXPECT_EQ(req.seed, 42u);
    EXPECT_EQ(req.flags, 0u);
    EXPECT_EQ(req.workloadMask, 0xffffffffu);
    EXPECT_EQ(req.metricMask, 0u);
}

TEST(ServeRequest, ParsesEveryKey)
{
    RequestRecord req = parseRequestLine(
        "characterize scale=standard seed=7 sampled=1 bypass=1 "
        "machine=westmere workloads=H-Sort,S-Grep metrics=LOAD,ILP");
    EXPECT_EQ(req.scale, 1u);
    EXPECT_EQ(req.seed, 7u);
    EXPECT_TRUE(req.flags & kServeFlagSampled);
    EXPECT_TRUE(req.flags & kServeFlagBypass);
    EXPECT_EQ(serveMachineName(req.machine), "westmere");
    EXPECT_EQ(workloadNamesFromMask(req.workloadMask),
              (std::vector<std::string>{"H-Sort", "S-Grep"}));
    EXPECT_EQ(metricNamesFromMask(req.metricMask),
              (std::vector<std::string>{"LOAD", "ILP"}));
}

TEST(ServeRequest, TabsAndCarriageReturnsSeparateTokens)
{
    // Tokens split on every isspace character, as `>>` splits them:
    // a tab between tokens and the '\r' a CRLF client leaves behind
    // parse like plain spaces.
    const RequestRecord spaced = parseRequestLine(
        "characterize scale=standard seed=7 workloads=H-Sort,S-Grep");
    const RequestRecord tabbed = parseRequestLine(
        "characterize\tscale=standard seed=7\t workloads=H-Sort,S-Grep\r");
    EXPECT_EQ(std::memcmp(&spaced, &tabbed, sizeof(spaced)), 0);
    EXPECT_EQ(tabbed.scale, 1u);
    EXPECT_EQ(tabbed.seed, 7u);
    EXPECT_EQ(workloadNamesFromMask(tabbed.workloadMask),
              (std::vector<std::string>{"H-Sort", "S-Grep"}));
}

TEST(ServeRequest, TextFormRoundTripsThroughFormat)
{
    const char *lines[] = {
        "characterize scale=quick seed=42",
        "characterize scale=full seed=9 sampled=1",
        "characterize scale=quick seed=42 machine=l3-4m",
        "characterize scale=standard seed=1 bypass=1 "
        "machine=westmere workloads=H-Sort metrics=LOAD",
    };
    for (const char *line : lines) {
        RequestRecord req = parseRequestLine(line);
        EXPECT_EQ(formatRequestLine(req), line);
        // Canonical text parses back to the identical record.
        RequestRecord again =
            parseRequestLine(formatRequestLine(req));
        EXPECT_EQ(std::memcmp(&req, &again, sizeof(req)), 0);
    }
}

/** Schema name to wire form: spaces travel as '_'. */
std::string
wireName(std::string name)
{
    for (char &c : name)
        if (c == ' ')
            c = '_';
    return name;
}

TEST(ServeRequest, SelectingEveryMetricCanonicalizesToFullSet)
{
    std::string all = "characterize metrics=";
    for (std::size_t i = 0; i < kNumMetrics; ++i)
        all += std::string(i ? "," : "") + wireName(metricName(i));
    RequestRecord req = parseRequestLine(all);
    EXPECT_EQ(req.metricMask, 0u);
}

TEST(ServeRequest, SpacedMetricNamesTravelWithUnderscores)
{
    // "SSE FP" and "KERNEL MODE" are addressable on the wire as
    // SSE_FP and KERNEL_MODE, resolve to the schema names, and render
    // back in wire form.
    RequestRecord req = parseRequestLine(
        "characterize metrics=SSE_FP,KERNEL_MODE");
    EXPECT_EQ(metricNamesFromMask(req.metricMask),
              (std::vector<std::string>{"SSE FP", "KERNEL MODE"}));
    const std::string line = formatRequestLine(req);
    EXPECT_NE(line.find("metrics=SSE_FP,KERNEL_MODE"),
              std::string::npos)
        << line;
    RequestRecord again = parseRequestLine(line);
    EXPECT_EQ(again.metricMask, req.metricMask);
}

TEST(ServeRequest, MalformedLinesAreTypedErrors)
{
    const char *bad[] = {
        "reticulate scale=quick",            // unknown verb
        "characterize scale=galactic",       // unknown scale
        "characterize seed=nine",            // non-integer
        "characterize seed=-1",              // sign rejected
        "characterize sampled=yes",          // non-0/1 switch
        "characterize frobnicate=1",         // unknown key
        "characterize scale",                // not key=value
        "characterize workloads=H-Sort,,S",  // empty element
        "characterize workloads=H-Sort,",    // trailing comma
        "characterize metrics=LOAD,",        // trailing comma
    };
    for (const char *line : bad) {
        try {
            parseRequestLine(line);
            FAIL() << "expected Error for: " << line;
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidConfig) << line;
        }
    }

    try {
        parseRequestLine("characterize workloads=Z-Nope");
        FAIL() << "expected UnknownName";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::UnknownName);
    }
    try {
        parseRequestLine("characterize metrics=BOGOMIPS");
        FAIL() << "expected UnknownName";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::UnknownName);
    }
    try {
        parseRequestLine("characterize machine=pentium");
        FAIL() << "expected UnknownName";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::UnknownName);
    }
    // Override specs are a CLI/library affordance; the wire carries
    // registry preset names only (the record stores an index).
    try {
        parseRequestLine("characterize machine=l2=512k");
        FAIL() << "expected UnknownName for an override spec";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::UnknownName);
    }
}

TEST(ServeRequest, OutOfRangeSeedIsATypedError)
{
    // Regression (found by the line fuzz below): a seed past 2^64-1
    // escaped as an untyped FatalError instead of Error(InvalidConfig).
    try {
        parseRequestLine("characterize seed=99999999999999999999");
        FAIL() << "expected Error(InvalidConfig)";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
    }
    EXPECT_EQ(parseRequestLine("characterize seed=18446744073709551615")
                  .seed,
              ~std::uint64_t(0));
}

TEST(RequestLineMutation, MutantsParseOrRaiseTypedErrors)
{
    // A deterministic mutational fuzz of the line protocol: fixed
    // seed and budget. Each mutant parses or raises bds::Error —
    // never an untyped exception.
    const std::string line =
        "characterize scale=standard seed=42 sampled=1 bypass=0 "
        "machine=westmere workloads=H-Sort,S-Grep,M-Kmeans "
        "metrics=LOAD,SSE_FP,ILP,L3_MISS";
    Mutator mut(0x6c696e65ULL);
    std::size_t parsed = 0, typed = 0;
    constexpr int kMutants = 2000;
    for (int i = 0; i < kMutants; ++i) {
        const unsigned op = static_cast<unsigned>(mut.below(5));
        std::string bytes = line;
        if (op < 3) {
            mut.mutate(bytes, op);
        } else if (op == 3) {
            mut.inflateField(bytes, {"seed="});
        } else {
            // Lengthen the seed past any 64-bit value.
            bytes.insert(bytes.find("seed=") + 5,
                         std::string(1 + mut.below(24), '9'));
        }
        const std::string what = "mutant " + std::to_string(i);
        try {
            const RequestRecord req = parseRequestLine(bytes);
            // What parses renders back to a line that parses the same.
            const RequestRecord again =
                parseRequestLine(formatRequestLine(req));
            EXPECT_EQ(std::memcmp(&req, &again, sizeof(req)), 0)
                << what << ": " << bytes;
            ++parsed;
        } catch (const Error &) {
            ++typed;
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << " '" << bytes << "': untyped "
                          << e.what();
        }
    }
    EXPECT_EQ(parsed + typed, static_cast<std::size_t>(kMutants));
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(typed, 0u);
}

TEST(ServeRequest, MachineNamesRoundTrip)
{
    EXPECT_EQ(serveMachineName(0), "default");
    EXPECT_EQ(serveMachineIndex("default"), 0u);
    EXPECT_EQ(serveMachineName(serveMachineIndex("westmere")),
              "westmere");
    EXPECT_EQ(serveMachineName(serveMachineIndex("l3-4m")), "l3-4m");
    // An index beyond the registry (a log from a newer build) is a
    // typed error, not an out-of-bounds read.
    EXPECT_THROW(serveMachineName(1u << 20), Error);
}

TEST(ServeRequest, ScaleNamesRoundTrip)
{
    EXPECT_EQ(serveScaleName(serveScaleIndex("quick")), "quick");
    EXPECT_EQ(serveScaleName(serveScaleIndex("standard")),
              "standard");
    EXPECT_EQ(serveScaleName(serveScaleIndex("full")), "full");
    EXPECT_THROW(serveScaleName(3), Error);
    EXPECT_THROW(serveScaleIndex("tiny"), Error);
}

TEST(ServeRequest, BinaryLogRoundTrips)
{
    TempFile log("serve_req_roundtrip.bin");
    std::vector<RequestRecord> in;
    for (std::uint64_t i = 0; i < 5; ++i) {
        RequestRecord req;
        req.scale = static_cast<std::uint32_t>(i % 3);
        req.seed = 100 + i;
        req.flags = i % 2 ? kServeFlagSampled : 0u;
        in.push_back(req);
    }
    storeRequestLog(log.path(), in);
    std::vector<RequestRecord> out = loadRequestLog(log.path());
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(std::memcmp(&in[i], &out[i], sizeof(in[i])), 0);
}

TEST(ServeRequest, LoadsVersionOneLogsWithDefaultMachine)
{
    // A v1 log (32-byte records, no machine field) must keep loading:
    // v1 records are a strict binary prefix of v2, and machine 0 is
    // the default preset every v1 request meant.
    TempFile log("serve_req_v1.bin");
    RequestRecord a, b;
    a.scale = 1;
    a.seed = 7;
    a.flags = kServeFlagSampled;
    a.machine = 12345; // must NOT survive: v1 carries no machine
    b.scale = 2;
    b.seed = 9;
    {
        std::ofstream out(log.path(), std::ios::binary);
        const std::uint32_t magic = kRequestLogMagic;
        const std::uint32_t version = 1;
        const std::uint32_t count = 2;
        out.write(reinterpret_cast<const char *>(&magic),
                  sizeof(magic));
        out.write(reinterpret_cast<const char *>(&version),
                  sizeof(version));
        out.write(reinterpret_cast<const char *>(&count),
                  sizeof(count));
        out.write(reinterpret_cast<const char *>(&a),
                  kRequestRecordV1Bytes);
        out.write(reinterpret_cast<const char *>(&b),
                  kRequestRecordV1Bytes);
    }
    std::vector<RequestRecord> out = loadRequestLog(log.path());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].scale, 1u);
    EXPECT_EQ(out[0].seed, 7u);
    EXPECT_EQ(out[0].flags, kServeFlagSampled);
    EXPECT_EQ(out[0].machine, 0u);
    EXPECT_EQ(out[1].scale, 2u);
    EXPECT_EQ(out[1].seed, 9u);
    EXPECT_EQ(out[1].machine, 0u);
}

TEST(ServeRequest, LoadingHardensAgainstCorruption)
{
    TempFile log("serve_req_hardened.bin");
    std::vector<RequestRecord> in(3);
    storeRequestLog(log.path(), in);

    auto expectIo = [&](const char *why) {
        try {
            loadRequestLog(log.path());
            FAIL() << "expected Error(Io): " << why;
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::Io) << why;
        }
    };

    // Truncated mid-record.
    {
        std::ifstream f(log.path(), std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
        std::ofstream out(log.path(),
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() - 7));
    }
    expectIo("truncated record");

    // Bad magic.
    storeRequestLog(log.path(), in);
    {
        std::fstream f(log.path(), std::ios::binary | std::ios::in
                                       | std::ios::out);
        f.write("XXXX", 4);
    }
    expectIo("bad magic");

    // Unsupported version.
    storeRequestLog(log.path(), in);
    {
        std::fstream f(log.path(), std::ios::binary | std::ios::in
                                       | std::ios::out);
        f.seekp(4);
        const std::uint32_t v = 99;
        f.write(reinterpret_cast<const char *>(&v), sizeof(v));
    }
    expectIo("unsupported version");

    // Trailing bytes beyond the declared count.
    storeRequestLog(log.path(), in);
    {
        std::ofstream f(log.path(), std::ios::binary | std::ios::app);
        f.write("junk", 4);
    }
    expectIo("trailing bytes");

    // Missing file.
    std::remove(log.path().c_str());
    expectIo("missing file");
}

TEST(ServeRequest, OverstatedCountIsATypedErrorNotBadAlloc)
{
    // Regression: a bare 12-byte header declaring 0xFFFFFFFF records
    // used to reserve() that many records before reading any and
    // escaped as std::bad_alloc instead of Error(Io).
    TempFile log("serve_req_overstated.bin");
    {
        const std::uint32_t header[3] = {kRequestLogMagic,
                                         kRequestLogVersion, 0xFFFFFFFFu};
        std::ofstream out(log.path(), std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(header), sizeof(header));
    }
    try {
        loadRequestLog(log.path());
        FAIL() << "expected Error(Io)";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Io);
    }
}

TEST(RequestLogMutation, MutantsLoadOrRaiseTypedIo)
{
    // A deterministic mutational fuzz of the binary log loader. The
    // records themselves are free-form integers, so a mutant either
    // loads or is Error(Io) — never another code, never an untyped
    // exception.
    TempFile log("serve_req_mutant.bin");
    std::vector<RequestRecord> reqs(4);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].seed = 40 + i;
        reqs[i].flags = static_cast<std::uint32_t>(i & 3);
    }
    storeRequestLog(log.path(), reqs);
    std::string file;
    {
        std::ifstream f(log.path(), std::ios::binary);
        file.assign(std::istreambuf_iterator<char>(f),
                    std::istreambuf_iterator<char>());
    }
    Mutator mut(0x72716c67ULL);
    std::size_t parsed = 0, typed = 0;
    constexpr int kMutants = 2000;
    for (int i = 0; i < kMutants; ++i) {
        const unsigned op = static_cast<unsigned>(mut.below(4));
        std::string bytes = file;
        if (op < 3) {
            mut.mutate(bytes, op);
        } else {
            // Inflate the header's record count.
            const std::uint32_t count = static_cast<std::uint32_t>(
                mut.inflated(reqs.size()));
            std::memcpy(&bytes[8], &count, sizeof(count));
        }
        {
            std::ofstream out(log.path(),
                              std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        const std::string what = "mutant " + std::to_string(i);
        try {
            loadRequestLog(log.path());
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

TEST(ServeRequest, WriterPatchesTheCountAfterEveryAppend)
{
    TempFile log("serve_req_writer.bin");
    {
        RequestLogWriter writer(log.path());
        EXPECT_EQ(writer.count(), 0u);
        // An empty log is loadable immediately.
        EXPECT_TRUE(loadRequestLog(log.path()).empty());

        RequestRecord req;
        req.seed = 1;
        writer.append(req);
        EXPECT_EQ(writer.count(), 1u);
        // Loadable after every append, not only at close: a crashed
        // daemon leaves a consistent prefix.
        EXPECT_EQ(loadRequestLog(log.path()).size(), 1u);

        req.seed = 2;
        writer.append(req);
        EXPECT_EQ(loadRequestLog(log.path()).size(), 2u);
    }
    std::vector<RequestRecord> out = loadRequestLog(log.path());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].seed, 1u);
    EXPECT_EQ(out[1].seed, 2u);
}

} // namespace
} // namespace bds
