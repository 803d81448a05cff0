/**
 * @file
 * Off-chip HBM bandwidth model.
 *
 * Concurrent DMA streams share the peak bandwidth equally
 * (processor-sharing): with n active streams each progresses at
 * peak/n bytes per cycle. Whenever the set of active streams changes,
 * remaining bytes are advanced and the next completion cycle is
 * recomputed. This captures the HBM contention effects of §5.6/§5.8
 * (e.g. DLRM+RsNt oversubscribing bandwidth) while staying O(#streams)
 * per membership change.
 *
 * Streams sit in a flat vector in ascending id (start) order, so
 * advancing, contention reports and completion callbacks all visit
 * them in start order. The model keeps one completion event: a
 * membership change re-keys it in place (Simulator::rescheduleAfter)
 * instead of cancelling it and arming a new closure, which gives it
 * the same (cycle, seq) key a re-arm would. Drained callbacks fire
 * from a reused member vector, so a completion allocates nothing
 * once the vectors have grown to the run's widest point.
 */

#ifndef V10_NPU_HBM_H
#define V10_NPU_HBM_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/small_fn.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace v10 {

class StatRegistry;

/** Handle identifying an in-flight DMA transfer. */
using DmaStreamId = std::uint64_t;

/**
 * Passive observer of HBM bandwidth contention: whenever streams
 * share the bus, each stream's owner is told how many cycles of
 * solo-rate progress it lost to each co-running owner. Implemented by
 * the interference-attribution collector in src/trace; a plain
 * virtual interface (not std::function) keeps the DMA hot path
 * allocation-free, and a null observer costs one branch.
 */
class HbmContentionObserver
{
  public:
    virtual ~HbmContentionObserver() = default;

    /** @p owner lost @p cycles of progress to @p other's streams. */
    virtual void onHbmContention(WorkloadId owner, WorkloadId other,
                                 double cycles) = 0;
};

/**
 * Processor-sharing HBM bandwidth model.
 */
class V10_COUPLING_POINT HbmModel
{
  public:
    /** Completion callback; SmallFn keeps DMA issue off the global
     * allocator for ordinary captures. */
    using DoneCallback = SmallFn<void()>;

    /**
     * @param sim the simulation kernel (not owned)
     * @param bytesPerCycle peak bandwidth in bytes per core cycle
     */
    HbmModel(Simulator &sim, double bytesPerCycle);

    HbmModel(const HbmModel &) = delete;
    HbmModel &operator=(const HbmModel &) = delete;

    /**
     * Begin a DMA transfer of @p bytes; @p done fires at completion.
     * Zero-byte transfers complete on the next cycle boundary.
     * @return a handle usable with cancel().
     */
    DmaStreamId startTransfer(Bytes bytes, DoneCallback done);

    /**
     * Owner-tagged variant: attributes this stream's contention to
     * @p owner when a contention observer is attached. The untagged
     * overload records kNoWorkload (excluded from attribution).
     */
    DmaStreamId startTransfer(Bytes bytes, WorkloadId owner,
                              DoneCallback done);

    /** Attach a contention observer (nullptr detaches). */
    void setContentionObserver(HbmContentionObserver *observer)
    {
        observer_ = observer;
    }

    /** Abort an in-flight transfer; its callback never fires. */
    void cancel(DmaStreamId id);

    /** Number of in-flight transfers. */
    std::size_t activeStreams() const { return streams_.size(); }

    /** Total bytes fully transferred so far. */
    double bytesMoved() const { return bytes_moved_; }

    /**
     * Average bandwidth utilization over [windowStart, now]:
     * bytes moved in the window / (window cycles * peak). Advances
     * in-flight streams to now first. The caller must have called
     * markWindow() at @p windowStart.
     */
    double utilization(Cycles windowStart);

    /** Record the current bytesMoved() as a measurement baseline. */
    void markWindow();

    /** bytesMoved() at the last markWindow() call. */
    double windowBytes() const { return bytes_moved_ - window_base_; }

    /** Peak bandwidth in bytes per cycle. */
    double peakBytesPerCycle() const { return peak_; }

    /**
     * Register HBM statistics under "<prefix>.*". The formulas read
     * bytes_moved_ without advance() — in-flight bytes are credited
     * at the next membership change, keeping the probe read-only.
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

  private:
    struct Stream
    {
        DmaStreamId id = 0;
        double remaining = 0.0;
        WorkloadId owner = kNoWorkload;
        DoneCallback done;
    };

    /** Advance all streams to the current cycle. */
    void advance();

    /** Recompute the next completion and re-key (or arm, or drop)
     * the completion event to match. */
    void scheduleNext();

    /** Fire completions for streams that have drained. */
    void onCompletionEvent();

    Simulator &sim_;
    double peak_;
    HbmContentionObserver *observer_ = nullptr;
    /** In-flight streams in ascending id order. */
    std::vector<Stream> streams_;
    /** Callbacks of the streams one completion event drained. */
    std::vector<DoneCallback> completed_;
    DmaStreamId next_id_ = 1;
    Cycles last_advance_ = 0;
    EventId pending_event_ = kNoEvent;
    double bytes_moved_ = 0.0;
    double window_base_ = 0.0;
};

} // namespace v10

#endif // V10_NPU_HBM_H
