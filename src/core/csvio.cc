#include "core/csvio.h"

#include <cstdlib>
#include <fstream>
#include <istream>
#include <unordered_map>

#include "common/log.h"

namespace bds {

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> out;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        char ch = line[i];
        if (ch == '"') {
            if (quoted && i + 1 < line.size() && line[i + 1] == '"') {
                field += '"';
                ++i;
            } else {
                quoted = !quoted;
            }
        } else if (ch == ',' && !quoted) {
            out.push_back(field);
            field.clear();
        } else if (ch != '\r') {
            field += ch;
        }
    }
    out.push_back(field);
    return out;
}

MetricTable
readMetricsCsv(std::istream &in)
{
    MetricTable table;
    std::string line;
    if (!std::getline(in, line))
        BDS_FATAL("metric CSV is empty");
    auto header = splitCsvLine(line);
    if (header.size() < 2)
        BDS_FATAL("metric CSV header needs a label plus metrics");
    table.columns.assign(header.begin() + 1, header.end());

    std::vector<std::vector<double>> rows;
    std::size_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        auto fields = splitCsvLine(line);
        if (fields.size() != header.size())
            BDS_FATAL("metric CSV line " << line_no << " has "
                      << fields.size() << " fields, expected "
                      << header.size());
        table.names.push_back(fields[0]);
        std::vector<double> row;
        for (std::size_t i = 1; i < fields.size(); ++i) {
            const char *s = fields[i].c_str();
            char *end = nullptr;
            double v = std::strtod(s, &end);
            if (end == s)
                BDS_FATAL("metric CSV line " << line_no
                          << ": non-numeric cell '" << fields[i]
                          << "'");
            row.push_back(v);
        }
        rows.push_back(std::move(row));
    }
    if (rows.empty())
        BDS_FATAL("metric CSV has no data rows");

    table.values = Matrix(rows.size(), table.columns.size());
    for (std::size_t r = 0; r < rows.size(); ++r)
        table.values.setRow(r, rows[r]);
    return table;
}

MetricTable
readMetricsCsvFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        BDS_FATAL("cannot open metric CSV '" << path << "'");
    return readMetricsCsv(in);
}

std::vector<std::size_t>
metricColumnOrder(const std::vector<std::string> &columns,
                  const MetricSet &set)
{
    // Map column name -> position, rejecting duplicates outright: a
    // doubled header cell means the file is not what it claims.
    std::unordered_map<std::string, std::size_t> by_name;
    for (std::size_t c = 0; c < columns.size(); ++c) {
        auto [it, fresh] = by_name.emplace(columns[c], c);
        if (!fresh)
            BDS_FATAL("metric CSV lists column '" << columns[c]
                      << "' twice");
    }

    std::vector<std::size_t> order;
    order.reserve(set.size());
    std::string missing;
    for (std::size_t i = 0; i < set.size(); ++i) {
        auto it = by_name.find(set.specAt(i).name);
        if (it == by_name.end()) {
            if (!missing.empty())
                missing += ", ";
            missing += "'" + std::string(set.specAt(i).name) + "'";
            continue;
        }
        order.push_back(it->second);
    }
    if (!missing.empty())
        BDS_FATAL("metric CSV lacks required metric column(s) "
                  << missing << " (have " << columns.size()
                  << " columns); columns are matched by name, "
                  << "never by position");
    return order;
}

Matrix
alignMetricTable(const MetricTable &table, const MetricSet &set)
{
    const std::vector<std::size_t> order =
        metricColumnOrder(table.columns, set);
    Matrix out(table.values.rows(), order.size());
    for (std::size_t r = 0; r < table.values.rows(); ++r)
        for (std::size_t c = 0; c < order.size(); ++c)
            out(r, c) = table.values(r, order[c]);
    return out;
}

} // namespace bds
