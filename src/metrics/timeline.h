/**
 * @file
 * Operator-timeline tracing: records every operator execution slice
 * (functional unit, tenant, operator, context-switch penalty,
 * preempted-or-completed) and renders it as a Chrome trace-event
 * JSON file (load in chrome://tracing or https://ui.perfetto.dev)
 * — Fig. 12's timelines, reconstructed from an actual run.
 */

#ifndef V10_METRICS_TIMELINE_H
#define V10_METRICS_TIMELINE_H

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace v10 {

class IntervalSampler;

/**
 * Producer of Chrome async span events ("ph":"b"/"e") that merge into
 * a TimelineTracer's event array alongside the op slices and counter
 * tracks. Implemented by the request tracer in src/trace; declared
 * here so metrics does not depend on the trace library.
 */
class AsyncSpanSource
{
  public:
    virtual ~AsyncSpanSource() = default;

    /**
     * Emit async span events onto an open JSON event array.
     * @param cyclesPerUs converts cycle timestamps (unused by
     *   sources that record in microseconds already)
     * @param needComma true when the array already holds events
     * @return true if any event was written
     */
    virtual bool writeAsyncSpanEvents(std::ostream &os,
                                      double cyclesPerUs,
                                      bool needComma) const = 0;
};

/**
 * Collects operator execution slices for offline visualization.
 */
class TimelineTracer
{
  public:
    /** @param cyclesPerUs core cycles per microsecond (freq * 1e3) */
    explicit TimelineTracer(double cyclesPerUs);

    /** An operator started on a unit (after @p penalty overhead). */
    void opBegin(Cycles now, const std::string &fu,
                 const std::string &tenant, const std::string &op,
                 Cycles penalty);

    /** The unit's in-flight operator ended.
     * @param preempted true when ended by preemption (§3.3) */
    void opEnd(Cycles now, const std::string &fu, bool preempted);

    /** Close any still-open slices at @p now (end of run). */
    void finish(Cycles now);

    /** Recorded slice count. */
    std::size_t sliceCount() const { return slices_.size(); }

    /** Recorded preemption count. */
    std::size_t preemptionCount() const;

    /**
     * Compact per-slice labels ("sa0:BERT@32:matmul.0@700") in
     * recording order — for golden-sequence regression tests.
     */
    std::vector<std::string> sliceLabels() const;

    /**
     * Merge @p sampler's time-series into the trace as "ph":"C"
     * counter events (utilization tracks above the op slices in
     * Perfetto). The sampler must outlive this tracer.
     */
    void attachSampler(const IntervalSampler *sampler)
    {
        sampler_ = sampler;
    }

    /**
     * Merge @p spans' request spans into the trace as async
     * "ph":"b"/"e" events. The source must outlive this tracer.
     */
    void attachSpans(const AsyncSpanSource *spans) { spans_ = spans; }

    /** Emit Chrome trace-event JSON. */
    void writeChromeTrace(std::ostream &os) const;

    /** writeChromeTrace() to a file path; an error Status if
     *  unwritable. */
    Status writeChromeTraceFile(const std::string &path) const;

  private:
    struct Slice
    {
        std::string fu;
        std::string tenant;
        std::string op;
        Cycles start = 0;
        Cycles end = 0;
        Cycles penalty = 0;
        bool preempted = false;
    };

    double cycles_per_us_;
    const IntervalSampler *sampler_ = nullptr;
    const AsyncSpanSource *spans_ = nullptr;
    std::vector<Slice> slices_;
    // Ordered map: finish() iterates to close open slices, and the
    // resulting slice order lands in golden-sequence tests.
    std::map<std::string, std::size_t> open_; ///< fu -> idx
};

} // namespace v10

#endif // V10_METRICS_TIMELINE_H
