/**
 * @file
 * Request-level span recording for the serving stack: one RequestSpan
 * per sampled request, covering arrival -> admission/shed ->
 * queue-wait -> service -> completion, with the interference
 * decomposition of the sojourn (queueing delay, actual service time,
 * solo-equivalent service time, and service inflation vs the tenant's
 * solo-run calibration).
 *
 * Spans are recorded passively from already-simulated events — the
 * tracer never draws randomness and never feeds back into scheduling,
 * so runs are bit-identical with tracing on or off. Output formats:
 * line-delimited JSON (`--trace-out`) and Chrome async "b"/"e" events
 * merged into the TimelineTracer trace (AsyncSpanSource).
 */

#ifndef V10_TRACE_REQUEST_TRACER_H
#define V10_TRACE_REQUEST_TRACER_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.h"
#include "metrics/timeline.h"
#include "trace/trace_context.h"

namespace v10 {

/** One traced request, all timestamps in sim-time microseconds. */
struct RequestSpan
{
    TraceContext ctx;
    std::string tenant;       ///< tenant label
    std::size_t core = 0;     ///< core the request was served on
    double arrivalUs = 0.0;   ///< open-loop arrival time
    double startUs = 0.0;     ///< service start (== end for shed)
    double endUs = 0.0;       ///< completion (or shed decision)
    double soloUs = 0.0;      ///< solo-equivalent service time
    double sloTargetUs = 0.0; ///< 0 = no SLO target
    bool shed = false;        ///< dropped at a full queue
    bool rejected = false;    ///< refused by the admission gate
    bool violated = false;    ///< completed past its SLO target

    double queueUs() const { return startUs - arrivalUs; }
    double serviceUs() const { return endUs - startUs; }
    double sojournUs() const { return endUs - arrivalUs; }
    /** Service inflation vs solo calibration (negative = speedup). */
    double inflationUs() const { return serviceUs() - soloUs; }
};

/**
 * Collects sampled request spans and renders them as JSONL or Chrome
 * async span events. Callers must add spans in a deterministic order
 * (the serve layer merges per-core span lists by a total arrival-time
 * order before feeding them in).
 */
class RequestTracer : public AsyncSpanSource
{
  public:
    /** @param sampleN head-sampling modulus (1 = keep all). */
    explicit RequestTracer(std::uint64_t sampleN = 1)
        : sampler_{sampleN}
    {
    }

    const TraceSampler &sampler() const { return sampler_; }

    /** Record one span (caller already applied sampling). */
    void add(RequestSpan span) { spans_.push_back(std::move(span)); }

    const std::vector<RequestSpan> &spans() const { return spans_; }
    std::size_t spanCount() const { return spans_.size(); }

    /** One compact JSON object per line, in recorded order. */
    void writeJsonl(std::ostream &os) const;

    /** writeJsonl() to a path; an error Status if the path cannot
     * be opened or the write comes up short. */
    Status writeJsonlFile(const std::string &path) const;

    /**
     * Emit each span as a Chrome async "b"/"e" pair (plus a nested
     * service sub-span for non-shed requests) under pid 1, keyed by
     * the hex trace ID.
     */
    bool writeAsyncSpanEvents(std::ostream &os, double cyclesPerUs,
                              bool needComma) const override;

  private:
    TraceSampler sampler_;
    std::vector<RequestSpan> spans_;
};

} // namespace v10

#endif // V10_TRACE_REQUEST_TRACER_H
