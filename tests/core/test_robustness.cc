/**
 * @file
 * Degenerate-input robustness: the pipeline and its consumers must
 * either produce sane output or fail loudly (never crash or emit
 * NaNs) on pathological metric matrices.
 */

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/rng.h"
#include "core/report.h"

namespace {

using bds::Matrix;
using bds::runPipeline;

std::vector<std::string>
labels(std::size_t n)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(std::string(i % 2 ? "S-W" : "H-W")
                      + std::to_string(i));
    return out;
}

TEST(Robustness, NearIdenticalWorkloads)
{
    // All workloads behave the same up to tiny jitter: PCA must not
    // blow up and clustering must still terminate.
    bds::Pcg32 rng(5);
    Matrix m(8, 10);
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 10; ++c)
            m(r, c) = 3.0 + 1e-9 * rng.nextGaussian();
    auto res = runPipeline(m, labels(8));
    EXPECT_GE(res.pca.numComponents, 1u);
    for (std::size_t r = 0; r < res.pca.scores.rows(); ++r)
        for (std::size_t c = 0; c < res.pca.scores.cols(); ++c)
            EXPECT_TRUE(std::isfinite(res.pca.scores(r, c)));
    EXPECT_EQ(res.dendrogram.merges().size(), 7u);
}

TEST(Robustness, ExactlyConstantColumns)
{
    bds::Pcg32 rng(7);
    Matrix m(6, 5);
    for (std::size_t r = 0; r < 6; ++r) {
        m(r, 0) = 42.0; // constant
        m(r, 1) = 0.0;  // constant zero
        for (std::size_t c = 2; c < 5; ++c)
            m(r, c) = rng.nextGaussian();
    }
    ::testing::internal::CaptureStderr();
    auto res = runPipeline(m, labels(6));
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(res.z.constantColumns.size(), 2u);
    for (double v : res.pca.eigenvalues)
        EXPECT_TRUE(std::isfinite(v));
    // The metric matrix is where a constant column deserves a
    // warning: exactly one line for the whole matrix.
    const std::string want =
        "[bds:warn] pipeline: 2 zero-variance metric column(s) mapped "
        "to zero\n";
    EXPECT_EQ(err, want);
}

TEST(Robustness, SingleMetricColumn)
{
    Matrix m(5, 1);
    for (std::size_t r = 0; r < 5; ++r)
        m(r, 0) = static_cast<double>(r * r);
    auto res = runPipeline(m, labels(5));
    EXPECT_EQ(res.pca.numComponents, 1u);
    EXPECT_EQ(res.dendrogram.numLeaves(), 5u);
}

TEST(Robustness, ExtremeOutlierDoesNotPoisonReports)
{
    bds::Pcg32 rng(9);
    Matrix m(10, 6);
    for (std::size_t r = 0; r < 10; ++r)
        for (std::size_t c = 0; c < 6; ++c)
            m(r, c) = rng.nextGaussian();
    m(9, 0) = 1e9; // monstrous outlier
    auto res = runPipeline(m, labels(10));
    std::ostringstream oss;
    EXPECT_NO_THROW(bds::writeDendrogramReport(oss, res));
    EXPECT_NO_THROW(bds::writeSimilarityObservations(oss, res));
    EXPECT_NO_THROW(bds::writeClusterReport(oss, res, 3));
    EXPECT_NE(oss.str().find("H-W0"), std::string::npos);
}

TEST(Robustness, DuplicateWorkloadRows)
{
    bds::Pcg32 rng(11);
    Matrix m(6, 4);
    for (std::size_t c = 0; c < 4; ++c) {
        double v = rng.nextGaussian();
        for (std::size_t r = 0; r < 6; r += 2) {
            m(r, c) = v + static_cast<double>(r);
            m(r + 1, c) = v + static_cast<double>(r); // exact twin
        }
    }
    auto res = runPipeline(m, labels(6));
    // Twins merge at distance zero in the first iterations.
    EXPECT_DOUBLE_EQ(res.dendrogram.merges()[0].distance, 0.0);
    auto subset = bds::selectRepresentatives(
        res, bds::RepresentativeStrategy::FarthestFromCentroid);
    EXPECT_FALSE(subset.representatives.empty());
}

TEST(Robustness, MinimumViableSuite)
{
    // Three workloads is the documented minimum.
    Matrix m{{1.0, 2.0}, {2.0, 1.0}, {10.0, 10.0}};
    auto res = runPipeline(m, labels(3));
    EXPECT_EQ(res.bic.points.front().k, 2u);
    EXPECT_EQ(res.dendrogram.merges().size(), 2u);
}

} // namespace
