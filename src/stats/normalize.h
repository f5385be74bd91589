/**
 * @file
 * Z-score normalization of a metric matrix.
 *
 * The paper normalizes each of the 45 metrics "to a Gaussian
 * distribution with mean equal to zero and standard deviation equal
 * to one (to isolate the effects of the varying ranges of each
 * dimension)" before PCA. Constant columns carry no information and
 * are mapped to all-zero columns rather than dividing by zero.
 */

#ifndef BDS_STATS_NORMALIZE_H
#define BDS_STATS_NORMALIZE_H

#include <vector>

#include "stats/matrix.h"

namespace bds {

/** Z-scored data plus the parameters used, for round-tripping. */
struct ZScoreResult
{
    /** Normalized matrix (same shape as the input). */
    Matrix normalized;

    /** Per-column means of the input. */
    std::vector<double> means;

    /** Per-column sample standard deviations of the input. */
    std::vector<double> stddevs;

    /** Column indices whose stddev was (near) zero. */
    std::vector<std::size_t> constantColumns;
};

/**
 * Z-score each column: (x - mean) / stddev.
 *
 * @param data Rows are observations (workloads), columns are metrics.
 * @param eps Stddevs below eps mark the column as constant (output 0).
 *
 * Silent: constant columns are reported in constantColumns only, and
 * the caller decides whether they deserve a warning (the metric
 * matrix does; the picker's interval features are constant by
 * construction).
 */
ZScoreResult zscore(const Matrix &data, double eps = 1e-12);

} // namespace bds

#endif // BDS_STATS_NORMALIZE_H
