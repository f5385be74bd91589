/** @file Tests for metric CSV import and its round trip. */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "../mutator.h"
#include "common/log.h"
#include "core/csvio.h"
#include "core/report.h"
#include "metrics/schema.h"

namespace {

using bds::readMetricsCsv;
using bds::splitCsvLine;

TEST(CsvIo, SplitsPlainFields)
{
    auto f = splitCsvLine("a,b,c");
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[0], "a");
    EXPECT_EQ(f[2], "c");
}

TEST(CsvIo, SplitsQuotedFieldsWithCommasAndEscapes)
{
    auto f = splitCsvLine("x,\"a,b\",\"q\"\"q\",1.5");
    ASSERT_EQ(f.size(), 4u);
    EXPECT_EQ(f[1], "a,b");
    EXPECT_EQ(f[2], "q\"q");
    EXPECT_EQ(f[3], "1.5");
}

TEST(CsvIo, HandlesEmptyFieldsAndCr)
{
    auto f = splitCsvLine("a,,c\r");
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[1], "");
    EXPECT_EQ(f[2], "c");
}

TEST(CsvIo, ParsesMetricTable)
{
    std::istringstream in("workload,m0,m1\nH-A,1.5,2\nS-B,-3,0.25\n");
    auto table = readMetricsCsv(in);
    ASSERT_EQ(table.names.size(), 2u);
    EXPECT_EQ(table.names[1], "S-B");
    ASSERT_EQ(table.columns.size(), 2u);
    EXPECT_EQ(table.columns[0], "m0");
    EXPECT_DOUBLE_EQ(table.values(0, 0), 1.5);
    EXPECT_DOUBLE_EQ(table.values(1, 1), 0.25);
}

TEST(CsvIo, SkipsBlankLines)
{
    std::istringstream in("w,m0\nA,1\n\nB,2\n");
    auto table = readMetricsCsv(in);
    EXPECT_EQ(table.names.size(), 2u);
}

TEST(CsvIo, RejectsMalformedInput)
{
    {
        std::istringstream in("");
        EXPECT_THROW(readMetricsCsv(in), bds::FatalError);
    }
    {
        std::istringstream in("justalabel\nA,1\n");
        EXPECT_THROW(readMetricsCsv(in), bds::FatalError);
    }
    {
        std::istringstream in("w,m0\nA\n");
        EXPECT_THROW(readMetricsCsv(in), bds::FatalError); // ragged
    }
    {
        std::istringstream in("w,m0\nA,notanumber\n");
        EXPECT_THROW(readMetricsCsv(in), bds::FatalError);
    }
    {
        std::istringstream in("w,m0\n");
        EXPECT_THROW(readMetricsCsv(in), bds::FatalError); // no rows
    }
    EXPECT_THROW(bds::readMetricsCsvFile("/no/such/file.csv"),
                 bds::FatalError);
}

TEST(CsvIo, AlignRealignsShuffledColumns)
{
    // Columns deliberately out of set order: matching is by name.
    std::istringstream in("workload,ILP,LOAD,L3 MISS\n"
                          "A,0.9,0.3,20\n"
                          "B,1.1,0.4,10\n");
    auto table = readMetricsCsv(in);
    bds::MetricSet set = bds::MetricSet::fromNames(
        {"LOAD", "L3 MISS", "ILP"});
    bds::Matrix m = bds::alignMetricTable(table, set);
    ASSERT_EQ(m.rows(), 2u);
    ASSERT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(0, 0), 0.3);
    EXPECT_DOUBLE_EQ(m(0, 1), 20.0);
    EXPECT_DOUBLE_EQ(m(0, 2), 0.9);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.1);
}

TEST(CsvIo, AlignIgnoresExtraColumns)
{
    // A full-looking file feeding a subset: foreign columns are
    // skipped, not an error.
    std::istringstream in("workload,LOAD,STORE,custom,ILP\n"
                          "A,0.3,0.1,99,0.9\n");
    auto table = readMetricsCsv(in);
    bds::MetricSet set = bds::MetricSet::fromNames({"ILP", "STORE"});
    bds::Matrix m = bds::alignMetricTable(table, set);
    ASSERT_EQ(m.cols(), 2u);
    EXPECT_DOUBLE_EQ(m(0, 0), 0.9);
    EXPECT_DOUBLE_EQ(m(0, 1), 0.1);
}

TEST(CsvIo, AlignNamesMissingColumns)
{
    std::istringstream in("workload,LOAD\nA,0.3\n");
    auto table = readMetricsCsv(in);
    bds::MetricSet set =
        bds::MetricSet::fromNames({"LOAD", "ILP", "MLP"});
    try {
        bds::alignMetricTable(table, set);
        FAIL() << "expected FatalError";
    } catch (const bds::FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("'ILP'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'MLP'"), std::string::npos) << msg;
    }
}

TEST(CsvIo, AlignRejectsDuplicateColumns)
{
    std::istringstream in("workload,LOAD,LOAD\nA,0.3,0.4\n");
    auto table = readMetricsCsv(in);
    EXPECT_THROW(
        bds::alignMetricTable(table, bds::MetricSet::fromNames({"LOAD"})),
        bds::FatalError);
}

TEST(CsvIo, RoundTripsThroughWriteMetricsCsv)
{
    // Build a tiny pipeline result, write it, read it back.
    bds::Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}};
    bds::PipelineResult res;
    res.names = {"H-A", "H-B", "S-A"};
    res.rawMetrics = m;
    std::ostringstream out;
    bds::writeMetricsCsv(out, res);

    std::istringstream in(out.str());
    auto table = readMetricsCsv(in);
    ASSERT_EQ(table.names, res.names);
    ASSERT_EQ(table.values.rows(), 3u);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_NEAR(table.values(r, c), m(r, c), 1e-6);
}

TEST(CsvMutation, MutantsParseOrRaiseFatal)
{
    // A deterministic mutational fuzz of the metric CSV reader (and
    // the column alignment every projection runs after it): fixed seed
    // and budget. Each mutant parses or raises FatalError — never an
    // untyped exception.
    bds::Matrix m(4, bds::kNumMetrics);
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            m(r, c) = (static_cast<double>(r * 97 + c * 13) - 150.0) / 7.0;
    bds::PipelineResult res;
    res.names = {"H-Sort", "S-Grep", "I-Join", "M-Kmeans"};
    res.rawMetrics = m;
    std::ostringstream csv;
    bds::writeMetricsCsv(csv, res);
    // Plus a quoted label with an embedded comma and escaped quotes.
    std::string file = csv.str() + "\"Q,\"\"x\"\"\"";
    for (std::size_t c = 0; c < bds::kNumMetrics; ++c)
        file += ",1.5";
    file += "\r\n";

    bds::Mutator mut(0x63737676ULL);
    std::size_t parsed = 0, fatal = 0;
    constexpr int kMutants = 2000;
    for (int i = 0; i < kMutants; ++i) {
        std::string bytes = file;
        mut.mutate(bytes, static_cast<unsigned>(mut.below(3)));
        const std::string what = "mutant " + std::to_string(i);
        try {
            std::istringstream in(bytes);
            const bds::MetricTable table = readMetricsCsv(in);
            bds::alignMetricTable(table, bds::MetricSet::tableII());
            ++parsed;
        } catch (const bds::FatalError &) {
            ++fatal;
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": untyped " << e.what();
        }
    }
    EXPECT_EQ(parsed + fatal, static_cast<std::size_t>(kMutants));
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(fatal, 0u);
}

} // namespace
