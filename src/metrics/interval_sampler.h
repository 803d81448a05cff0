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
 */

#ifndef V10_METRICS_INTERVAL_SAMPLER_H
#define V10_METRICS_INTERVAL_SAMPLER_H

#include <functional>
#include <iosfwd>
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
    std::size_t rowCount() const { return cycles_.size(); }

    /** Probe names in registration order (CSV column order). */
    std::vector<std::string> probeNames() const;

    /** Sample cycle of each recorded row. */
    const std::vector<Cycles> &rowCycles() const { return cycles_; }

    /** Recorded value of probe @p probeIdx in row @p rowIdx. */
    double sample(std::size_t rowIdx, std::size_t probeIdx) const;

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

    void tick();
    void record(Cycles now);

    Cycles interval_;
    Simulator *sim_ = nullptr;
    PeriodicId tick_ = kNoPeriodic;
    bool stopped_ = false;
    std::vector<ProbeEntry> probes_;
    std::vector<Cycles> cycles_;
    std::vector<double> values_; ///< row-major, rowCount x probeCount
};

} // namespace v10

#endif // V10_METRICS_INTERVAL_SAMPLER_H
