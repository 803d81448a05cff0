/**
 * @file
 * Hierarchical statistics registry, in the spirit of gem5's stats
 * framework: components register named counters, gauges, derived
 * formulas, distributions and tables under dotted paths
 * ("core.sa0.busy_cycles", "sched.preemptions", ...), and the
 * registry renders the whole tree as a gem5-style text report or a
 * nested JSON document.
 *
 * A table is one entry standing for a rows x columns block of
 * formula leaves `<path>.<row>.<col>` (the attribution matrix's
 * per-perpetrator cells). Every query sees its leaves exactly as if
 * each had been registered with addFormula(); only the storage is
 * one entry instead of rows x columns, and the table is read a row
 * at a time: one reader call fills every column of a row, so the
 * JSON rendering and freeze() cost one call per row, not per cell.
 *
 * Lifecycle: one registry per simulated run. Components register at
 * run start; formulas and tables read live component state (by
 * capturing pointers), so before the components die the owning
 * engine calls freeze(), which evaluates every formula and table
 * cell once and stores the final values. A frozen registry is a
 * plain snapshot that can safely outlive the simulation it observed.
 */

#ifndef V10_METRICS_STAT_REGISTRY_H
#define V10_METRICS_STAT_REGISTRY_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/annotations.h"

namespace v10 {

class JsonWriter;

/**
 * The registry. Not thread-safe: each run is single-threaded and
 * owns its own registry (parallel sweeps use one per cell).
 */
class V10_DOMAIN_LOCAL StatRegistry
{
  public:
    /** Monotonic integer statistic (event counts, cycle sums). */
    class Counter
    {
      public:
        void add(std::uint64_t delta) { value_ += delta; }
        Counter &operator+=(std::uint64_t d) { add(d); return *this; }
        Counter &operator++() { ++value_; return *this; }
        void set(std::uint64_t v) { value_ = v; }
        std::uint64_t value() const { return value_; }

      private:
        std::uint64_t value_ = 0;
    };

    /** Last-write-wins floating-point statistic. */
    class Gauge
    {
      public:
        void set(double v) { value_ = v; }
        double value() const { return value_; }

      private:
        double value_ = 0.0;
    };

    /** Streaming sample distribution (count/sum/min/max/mean). */
    class Distribution
    {
      public:
        void record(double sample);
        std::uint64_t count() const { return count_; }
        double sum() const { return sum_; }
        double min() const { return count_ ? min_ : 0.0; }
        double max() const { return count_ ? max_ : 0.0; }
        double mean() const;

      private:
        std::uint64_t count_ = 0;
        double sum_ = 0.0;
        double min_ = 0.0;
        double max_ = 0.0;
    };

    /** Deferred read of live component state. */
    using Formula = std::function<double()>;

    /**
     * The axes of a table: sorted, unique row and column names, each
     * one path segment ([A-Za-z0-9_]), at most kMaxTableColumns
     * columns, and one description per column. Tables over the same
     * rows share one copy.
     */
    struct TableAxes
    {
        std::vector<std::string> rows;
        std::vector<std::string> columns;
        std::vector<std::string> descriptions;
    };

    /**
     * Deferred read of one table row: fill out[c] for every column c
     * of axes row @p row (an index into the axes, never the skipped
     * row).
     */
    using RowReader = std::function<void(std::size_t row, double *out)>;

    /** The most columns a table may have, so that one row fits in a
     * buffer on the stack. */
    static constexpr std::size_t kMaxTableColumns = 8;

    /** addTable() without a left-out row. */
    static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /**
     * Register a statistic under @p path (dotted, [A-Za-z0-9_.]).
     * Duplicate or tree-conflicting paths (one path extending
     * another at a dot boundary) panic. Returned references stay
     * valid for the registry's lifetime. Equal descriptions share
     * one stored copy.
     */
    Counter &addCounter(std::string path,
                        std::string_view description = {});
    Gauge &addGauge(std::string path, std::string_view description = {});
    Distribution &addDistribution(std::string path,
                                  std::string_view description = {});
    void addFormula(std::string path, Formula formula,
                    std::string_view description = {});

    /**
     * Register a table at @p path: the leaf `path.<row>.<col>` for
     * every row of @p axes except @p skipRow (an index into
     * axes->rows, or kNoRow) and every column, read a row at a time
     * through @p rows, described by its column's description. The
     * table must hold at least one leaf. Panics on invalid axes and
     * on the conflicts addFormula() would find for its leaves.
     */
    void addTable(std::string path,
                  std::shared_ptr<const TableAxes> axes,
                  RowReader rows, std::size_t skipRow = kNoRow);

    /** True when @p path names a registered statistic. */
    bool has(const std::string &path) const;

    /**
     * Current scalar value of @p path; formulas evaluate live (or
     * return the frozen value), distributions return their mean.
     * Panics on unknown paths.
     */
    double value(const std::string &path) const;

    /** Description attached at registration ("" if none). */
    const std::string &description(const std::string &path) const;

    /** All registered paths in sorted order. */
    std::vector<std::string> paths() const;

    /** Number of registered statistics; a table counts its leaves. */
    std::size_t size() const { return leaves_; }

    /**
     * Evaluate every formula and table cell once and replace it with
     * its value.
     * Must be called before the components the formulas read are
     * destroyed. Idempotent.
     */
    void freeze();

    /** True after freeze(). */
    bool frozen() const { return frozen_; }

    /**
     * Flat sorted snapshot of every statistic as (path, value)
     * pairs. Distributions expand to path.count / path.sum /
     * path.min / path.max / path.mean entries.
     */
    std::vector<std::pair<std::string, double>> snapshot() const;

    /** gem5-style "name value" lines, sorted by path. */
    std::string textReport() const;

    /**
     * Emit the registry as one nested JSON object: dotted paths
     * become nested objects ("core.sa0.busy_cycles" ->
     * {"core":{"sa0":{"busy_cycles": ...}}}).
     */
    void writeJson(JsonWriter &writer) const;

  private:
    /** A table's storage: visible row r is axes row axisRow(r). */
    struct Table
    {
        std::shared_ptr<const TableAxes> axes;
        std::size_t skipRow = kNoRow;
        RowReader reader;           ///< released by freeze()
        std::vector<double> frozen; ///< rows() x columns(), row-major

        std::size_t rows() const;
        std::size_t columns() const { return axes->columns.size(); }
        std::size_t axisRow(std::size_t r) const
        {
            return r < skipRow ? r : r + 1;
        }
        const std::string &rowName(std::size_t r) const
        {
            return axes->rows[axisRow(r)];
        }
        /** Fill out[0, columns()) with visible row @p r. */
        void readRow(std::size_t r, double *out) const;
        /** Locate leaf "<row>.<col>"; false when it is not one. */
        bool find(std::string_view rest, std::size_t &r,
                  std::size_t &c) const;

        /** Call @p visit(leafPath, r, c) for every leaf, in path
         *  order; @p path is where the table is registered. */
        template <typename Visit>
        void
        forEachLeaf(const std::string &path, Visit &&visit) const
        {
            std::string leaf;
            for (std::size_t r = 0; r < rows(); ++r) {
                leaf.assign(path).append(1, '.').append(rowName(r));
                leaf += '.';
                const std::size_t stem = leaf.size();
                for (std::size_t c = 0; c < columns(); ++c) {
                    leaf.resize(stem);
                    leaf += axes->columns[c];
                    visit(leaf, r, c);
                }
            }
        }
    };

    /** What a stat holds; freeze() turns a Formula into a Gauge
     * holding its final value. A Table lives out of line so that it
     * does not widen every other stat. */
    using Data = std::variant<Counter, Gauge, Distribution, Formula,
                              std::unique_ptr<Table>>;

    struct Stat
    {
        Data data;
        const std::string *description = nullptr; ///< in descriptions_
    };

    /** A resolved leaf path: a stat, or one cell of a table stat. */
    struct Leaf
    {
        const Stat *stat = nullptr; ///< nullptr: no such leaf
        const Table *table = nullptr;
        std::size_t row = 0;
        std::size_t col = 0;
    };

    /** Validate the path and claim it in the tree (panics on
     * conflicts); returns the created slot. */
    Stat &insert(std::string path, std::string_view description,
                 Data data);

    /** Resolve @p path to a leaf, looking inside tables. */
    Leaf findLeaf(std::string_view path) const;

    static double scalarOf(const Stat &stat);
    /** The table @p stat holds, or nullptr. */
    static Table *tableOf(const Stat &stat);

    // std::map keeps paths sorted, and node addresses stable so
    // components can hold Counter/Distribution references.
    std::map<std::string, Stat, std::less<>> stats_;
    // Interned descriptions: a few distinct strings serve many stats.
    std::set<std::string, std::less<>> descriptions_;
    /// The axes addTable() last validated; held, so that no later
    /// axes can take its address.
    std::shared_ptr<const TableAxes> checkedAxes_;
    std::size_t leaves_ = 0; ///< size(): each table leaf counts once
    bool frozen_ = false;
};

} // namespace v10

#endif // V10_METRICS_STAT_REGISTRY_H
