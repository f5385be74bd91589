/**
 * @file
 * CSV import/export of metric matrices.
 *
 * The pipeline is measurement-agnostic: a workloads x metrics CSV
 * produced by any harness — this repository's simulator, perf on
 * real hardware, or a spreadsheet — can be loaded and analyzed.
 * writeMetricsCsv (report.h) produces the same format this reads.
 */

#ifndef BDS_CORE_CSVIO_H
#define BDS_CORE_CSVIO_H

#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/set.h"
#include "stats/matrix.h"

namespace bds {

/** A named metric matrix loaded from CSV. */
struct MetricTable
{
    std::vector<std::string> names;   ///< row labels (workloads)
    std::vector<std::string> columns; ///< column labels (metrics)
    Matrix values;                    ///< the data
};

/**
 * Split one CSV line honoring double-quoted fields (with "" escapes).
 */
std::vector<std::string> splitCsvLine(const std::string &line);

/**
 * Parse a metric CSV from a stream.
 *
 * Expected layout: a header row `label,<metric>,...` followed by one
 * row per workload. Ragged rows or non-numeric cells are fatal.
 */
MetricTable readMetricsCsv(std::istream &in);

/** Load a metric CSV from a file; fatal when unreadable. */
MetricTable readMetricsCsvFile(const std::string &path);

/**
 * Positions of `set`'s metrics among the header `columns`, in set
 * order. A duplicated column name, or a set metric with no column,
 * is fatal with a diagnostic naming the offending columns.
 */
std::vector<std::size_t>
metricColumnOrder(const std::vector<std::string> &columns,
                  const MetricSet &set);

/**
 * Align a loaded table's columns to `set` order by canonical name.
 *
 * Columns may appear in any order; columns outside the set are
 * ignored (so a full Table II CSV feeds any declared subset). A set
 * metric missing from the table, or a duplicated column name, is
 * fatal with a diagnostic naming the offending columns — positions
 * are never trusted.
 *
 * @return The table's values with columns reordered to set order.
 */
Matrix alignMetricTable(const MetricTable &table, const MetricSet &set);

} // namespace bds

#endif // BDS_CORE_CSVIO_H
