#include "stats/normalize.h"

#include <cmath>

#include "fault/error.h"

namespace bds {

ZScoreResult
zscore(const Matrix &data, double eps)
{
    if (data.rows() < 2)
        BDS_RAISE(ErrorCode::DegenerateData,
                  "zscore needs at least two observations, got "
                      << data.rows());
    // A single NaN/Inf cell would silently poison its column's mean
    // and stddev and then the whole normalized column; reject the
    // matrix up front with the cell's coordinates instead.
    for (std::size_t r = 0; r < data.rows(); ++r)
        for (std::size_t c = 0; c < data.cols(); ++c)
            if (!std::isfinite(data(r, c)))
                BDS_RAISE(ErrorCode::DegenerateData,
                          "zscore input has a non-finite value at ("
                              << r << ',' << c << ')');

    ZScoreResult res;
    res.means = data.colMeans();
    res.stddevs = data.colStddevs();
    res.normalized = Matrix(data.rows(), data.cols());

    for (std::size_t c = 0; c < data.cols(); ++c) {
        if (res.stddevs[c] < eps) {
            res.constantColumns.push_back(c);
            continue; // column stays zero
        }
        for (std::size_t r = 0; r < data.rows(); ++r)
            res.normalized(r, c) =
                (data(r, c) - res.means[c]) / res.stddevs[c];
    }
    return res;
}

} // namespace bds
