/**
 * @file
 * Request-format tests: the text line protocol, which is also the
 * request log's format (strict parsing, canonical rendering and its
 * round trip, and a mutational fuzz of the parser).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/schema.h"
#include "../mutator.h"
#include "serve/request.h"

namespace bds {
namespace {

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
    EXPECT_EQ(spaced, tabbed);
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
        EXPECT_EQ(req, again);
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
            EXPECT_EQ(req, again)
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
    // An index beyond the registry is a typed error, not an
    // out-of-bounds read.
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

} // namespace
} // namespace bds
