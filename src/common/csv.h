/**
 * @file
 * CSV emission for `v10sim figure --csv 1` and the bench binaries'
 * --csv mode, so figure data can be plotted externally.
 */

#ifndef V10_COMMON_CSV_H
#define V10_COMMON_CSV_H

#include <ostream>
#include <string>
#include <vector>

namespace v10 {

/**
 * Streaming CSV writer with RFC-4180-style quoting of cells that
 * contain commas, quotes, or newlines.
 */
class CsvWriter
{
  public:
    /** Write to the given stream (not owned). */
    explicit CsvWriter(std::ostream &os);

    /** Write one row of cells. */
    void row(const std::vector<std::string> &cells);

    /** Convenience: header row. */
    void header(const std::vector<std::string> &cells) { row(cells); }

    /** Quote a single cell per RFC 4180 if needed. */
    static std::string quote(const std::string &cell);

  private:
    std::ostream &os_;
};

} // namespace v10

#endif // V10_COMMON_CSV_H
