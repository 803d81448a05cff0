/**
 * @file
 * Periodic time-series sampling of simulator state: every N cycles a
 * Simulator::every() periodic event reads a set of registered probes
 * and appends one row to an in-memory table. Rows export as CSV or as
 * Chrome trace-event counter tracks ("ph":"C") that render above the
 * operator slices in Perfetto.
 *
 * Probes are read-only by contract: a tick must not mutate component
 * state, so enabling sampling leaves scheduling decisions
 * bit-identical to a run without it (the event queue fires same-cycle
 * events in insertion order, and sampler ticks only ever append).
 *
 * Rows are stored at the cost of their information. Row cycles are
 * arithmetic runs (first, step, count): a started sampler has one run
 * for its ticks and one for stop()'s partial row. Each cell is a
 * 2-bit class: +0.0 (by bits; -0.0 prints "-0"), the same bits as the
 * cell above it, or stored. Only stored cells keep a double, in
 * append-only chunks, so growth never copies. Rows read back in
 * order through one cursor (rows()), which every writer shares.
 */

#ifndef V10_METRICS_INTERVAL_SAMPLER_H
#define V10_METRICS_INTERVAL_SAMPLER_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/types.h"

namespace v10 {

class Simulator;

class V10_DOMAIN_LOCAL IntervalSampler
{
  public:
    /**
     * How a probe's raw reading becomes the recorded sample:
     *  - Level: record the reading as-is (queue depths, tenant counts)
     *  - Rate: (reading - previous) / interval (utilizations, when
     *    the reading is an accumulated busy-cycle or byte count)
     *  - Delta: reading - previous (events per interval, e.g.
     *    preemptions)
     */
    enum class Mode { Level, Rate, Delta };

    using Probe = std::function<double()>;

    /** @param interval cycles between samples (must be > 0) */
    explicit IntervalSampler(Cycles interval);

    IntervalSampler(const IntervalSampler &) = delete;
    IntervalSampler &operator=(const IntervalSampler &) = delete;

    /** Register a probe; must precede start(). */
    void addProbe(std::string name, Mode mode, Probe probe);

    /**
     * Register a column whose rows are supplied externally through
     * appendRow() — used by layers (e.g. the serving stack) that
     * sample deterministically inside their own event loop instead of
     * through simulator ticks. A sampler with manual columns cannot
     * be start()ed.
     */
    void addManualColumn(std::string name);

    /**
     * Append one externally-sampled row. Only valid on a sampler
     * that was never start()ed; @p values must cover every column in
     * registration order.
     */
    void appendRow(Cycles cycle, const std::vector<double> &values);

    /**
     * Bind to @p sim and schedule the first tick one interval from
     * now. Also records a baseline reading at the current cycle so
     * Rate/Delta probes have a previous value.
     */
    void start(Simulator &sim);

    /** Take one final sample at the current cycle (end of run). */
    void stop();

    Cycles interval() const { return interval_; }
    std::size_t probeCount() const { return probes_.size(); }
    std::size_t rowCount() const { return rows_; }

    /** Probe names in registration order (CSV column order). */
    std::vector<std::string> probeNames() const;

    /**
     * Sequential reader of the recorded rows:
     * `for (auto row = s.rows(); row.next();)` visits each row in
     * order, with its cycle() and its probeCount() values().
     */
    class RowCursor
    {
      public:
        explicit RowCursor(const IntervalSampler &sampler);

        /** Decode the next row; false once every row is read. */
        bool next();

        Cycles cycle() const { return cycle_; }
        const double *values() const { return values_.data(); }

      private:
        const IntervalSampler &s_;
        std::size_t row_ = 0;    ///< rows decoded so far
        std::size_t run_ = 0;    ///< cycle run of the next row
        std::size_t inRun_ = 0;  ///< its position in that run
        std::size_t stored_ = 0; ///< next stored cell
        Cycles cycle_ = 0;
        std::vector<double> values_;
    };

    RowCursor rows() const { return RowCursor(*this); }

    /** "cycle,probe1,probe2,..." header plus one line per row. */
    void writeCsv(std::ostream &os) const;

    /** writeCsv() to a path; an error Status if unwritable. */
    Status writeCsvFile(const std::string &path) const;

    /**
     * Emit one Chrome trace counter event per (row, probe) onto an
     * open JSON event array.
     * @param cyclesPerUs converts sample cycles to trace timestamps
     * @param needComma true when the array already holds events
     * @return true if any event was written
     */
    bool writeCounterEvents(std::ostream &os, double cyclesPerUs,
                            bool needComma) const;

  private:
    struct ProbeEntry
    {
        std::string name;
        Mode mode;
        Probe probe;
        double prev = 0.0;
    };

    /** A run of row cycles first, first + step, ...; steps wrap
     * modulo 2^64, so any cycle sequence splits into runs. */
    struct CycleRun
    {
        Cycles first;
        Cycles step;
        std::size_t count;
    };

    /** What a cell holds, two bits per cell. */
    enum CellClass : std::uint64_t { kZero = 0, kRepeat = 1, kStored = 2 };

    /** Append-only storage in fixed chunks: growth never copies and
     * wastes at most one chunk. */
    template <typename T>
    class V10_DOMAIN_LOCAL Chunks
    {
      public:
        static constexpr std::size_t kPerChunk = 4096 / sizeof(T);

        void
        push_back(T v)
        {
            if (size_ % kPerChunk == 0)
                chunks_.push_back(std::make_unique<T[]>(kPerChunk));
            chunks_.back()[size_++ % kPerChunk] = v;
        }

        T &operator[](std::size_t i)
        {
            return chunks_[i / kPerChunk][i % kPerChunk];
        }
        T operator[](std::size_t i) const
        {
            return chunks_[i / kPerChunk][i % kPerChunk];
        }

      private:
        std::vector<std::unique_ptr<T[]>> chunks_;
        std::size_t size_ = 0;
    };

    static constexpr std::size_t kCellsPerWord = 32;

    void tick();
    void record(Cycles now);
    /** Start a row at @p cycle; appendCell() then adds its cells in
     * column order. */
    void beginRow(Cycles cycle);
    void appendCell(std::size_t probe, double value);
    Cycles lastCycle() const;

    Cycles interval_;
    Simulator *sim_ = nullptr;
    PeriodicId tick_ = kNoPeriodic;
    bool stopped_ = false;
    std::vector<ProbeEntry> probes_;
    std::size_t rows_ = 0;
    std::vector<CycleRun> cycleRuns_;
    Chunks<std::uint64_t> classes_; ///< row-major, 2 bits per cell
    Chunks<double> stored_;         ///< the stored cells, in order
    std::vector<double> last_;      ///< the newest row's cells
};

} // namespace v10

#endif // V10_METRICS_INTERVAL_SAMPLER_H
