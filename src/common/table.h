/**
 * @file
 * ASCII table rendering for `v10sim figure` and the bench binaries.
 * Each paper table/figure prints as rows of a TextTable so the output
 * can be compared side by side with the paper.
 */

#ifndef V10_COMMON_TABLE_H
#define V10_COMMON_TABLE_H

#include <string>
#include <vector>

namespace v10 {

/**
 * Column-aligned ASCII table with a header row. Cells are strings;
 * numeric helpers format with fixed precision.
 */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Begin a new row; subsequent cell() calls fill it. */
    void addRow();

    /** Append a string cell to the current row. */
    void cell(const std::string &value);

    /** Append a formatted double with @p precision decimals. */
    void cell(double value, int precision = 2);

    /** Append an integer cell. */
    void cell(long long value);

    /** Append a percentage cell ("42.3%") from a [0,1] fraction. */
    void cellPct(double fraction, int precision = 1);

    /** Render the whole table, including header and separator. */
    std::string render() const;

    /** Render and write to stdout. */
    void print() const;

    /** Number of data rows so far. */
    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace v10

#endif // V10_COMMON_TABLE_H
