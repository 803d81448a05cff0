/**
 * @file
 * Hierarchical statistics registry, in the spirit of gem5's stats
 * framework: components register named counters, gauges, derived
 * formulas, and distributions under dotted paths
 * ("core.sa0.busy_cycles", "sched.preemptions", ...), and the
 * registry renders the whole tree as a gem5-style text report or a
 * nested JSON document.
 *
 * Lifecycle: one registry per simulated run. Components register at
 * run start; formulas read live component state (by capturing
 * pointers), so before the components die the owning engine calls
 * freeze(), which evaluates every formula once and stores the final
 * value. A frozen registry is a plain snapshot that can safely
 * outlive the simulation it observed.
 */

#ifndef V10_METRICS_STAT_REGISTRY_H
#define V10_METRICS_STAT_REGISTRY_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
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

    /** Number of registered statistics. */
    std::size_t size() const { return stats_.size(); }

    /**
     * Evaluate every formula once and replace it with its value.
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
    /** What a stat holds; freeze() turns a Formula into a Gauge
     * holding its final value. */
    using Data = std::variant<Counter, Gauge, Distribution, Formula>;

    struct Stat
    {
        Data data;
        const std::string *description = nullptr; ///< in descriptions_
    };

    /** Validate the path and claim it in the tree (panics on
     * conflicts); returns the created slot. */
    Stat &insert(std::string path, std::string_view description,
                 Data data);

    static double scalarOf(const Stat &stat);

    // std::map keeps paths sorted, and node addresses stable so
    // components can hold Counter/Distribution references.
    std::map<std::string, Stat, std::less<>> stats_;
    /// Slot after the latest insert: where an in-order insert goes.
    std::map<std::string, Stat, std::less<>>::iterator afterLast_ =
        stats_.end();
    // Interned descriptions: a few distinct strings serve many stats.
    std::set<std::string, std::less<>> descriptions_;
    bool frozen_ = false;
};

} // namespace v10

#endif // V10_METRICS_STAT_REGISTRY_H
