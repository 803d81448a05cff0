#include "npu/hbm.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "metrics/stat_registry.h"

namespace v10 {

namespace {

/** Bytes below which a stream counts as drained (fp slack). */
constexpr double kDrainEpsilon = 1e-3;

} // namespace

HbmModel::HbmModel(Simulator &sim, double bytesPerCycle)
    : sim_(sim), peak_(bytesPerCycle)
{
    // NpuConfig::check rejects non-positive and non-finite bandwidth,
    // so reaching this is a caller bug.
    if (!(peak_ > 0.0))
        V10_PANIC("HbmModel: peak bandwidth must be positive (got ",
                  peak_, ")");
}

void
HbmModel::advance()
{
    const Cycles now = sim_.now();
    if (now <= last_advance_) {
        last_advance_ = now;
        return;
    }
    const auto elapsed = static_cast<double>(now - last_advance_);
    last_advance_ = now;
    if (streams_.empty())
        return;
    const std::size_t n = streams_.size();
    const double share = peak_ / static_cast<double>(n);
    const double budget = elapsed * share;
    for (auto &stream : streams_) {
        const double used = std::min(stream.remaining, budget);
        stream.remaining -= used;
        bytes_moved_ += used;
        if (observer_ && n > 1 && stream.owner != kNoWorkload &&
            used > 0.0) {
            // The stream moved `used` bytes at 1/n of peak; solo it
            // would have taken used/peak cycles instead of used/share
            // — the difference is contention stall, split equally
            // over the co-running streams' owners.
            const double activeFrac = used / budget;
            const double lostPerOther =
                elapsed * activeFrac / static_cast<double>(n);
            for (const auto &other : streams_) {
                if (other.id == stream.id ||
                    other.owner == kNoWorkload ||
                    other.owner == stream.owner)
                    continue;
                observer_->onHbmContention(stream.owner, other.owner,
                                           lostPerOther);
            }
        }
    }
}

void
HbmModel::scheduleNext()
{
    if (streams_.empty()) {
        if (pending_event_ != kNoEvent) {
            sim_.cancel(pending_event_);
            pending_event_ = kNoEvent;
        }
        return;
    }
    double min_remaining = streams_.front().remaining;
    for (const auto &stream : streams_)
        min_remaining = std::min(min_remaining, stream.remaining);
    const double share =
        peak_ / static_cast<double>(streams_.size());
    const double cycles_needed = min_remaining / share;
    const Cycles delta = std::max<Cycles>(
        1, static_cast<Cycles>(std::ceil(cycles_needed)));
    // Re-keying takes the fresh seq that cancel + after would, so
    // the event order is the same as re-arming a new closure.
    if (pending_event_ != kNoEvent)
        pending_event_ = sim_.rescheduleAfter(pending_event_, delta);
    else
        pending_event_ =
            sim_.after(delta, [this] { onCompletionEvent(); });
}

void
HbmModel::onCompletionEvent()
{
    pending_event_ = kNoEvent;
    advance();

    // Compact the survivors in place, keeping their start order.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        Stream &stream = streams_[i];
        if (stream.remaining <= kDrainEpsilon) {
            completed_.push_back(std::move(stream.done));
        } else {
            if (kept != i)
                streams_[kept] = std::move(stream);
            ++kept;
        }
    }
    streams_.erase(streams_.begin() + static_cast<std::ptrdiff_t>(kept),
                   streams_.end());
    scheduleNext();
    // Fire after membership is settled; callbacks may start new
    // transfers, which re-advance and re-schedule on their own. A
    // callback cannot re-enter this function (the next completion is
    // at least a cycle away), so completed_ is stable while it runs.
    for (auto &cb : completed_) {
        if (cb)
            cb();
    }
    completed_.clear();
}

DmaStreamId
HbmModel::startTransfer(Bytes bytes, DoneCallback done)
{
    return startTransfer(bytes, kNoWorkload, std::move(done));
}

DmaStreamId
HbmModel::startTransfer(Bytes bytes, WorkloadId owner,
                        DoneCallback done)
{
    advance();
    const DmaStreamId id = next_id_++;
    streams_.push_back(Stream{id, static_cast<double>(bytes), owner,
                              std::move(done)});
    scheduleNext();
    return id;
}

void
HbmModel::cancel(DmaStreamId id)
{
    const auto it =
        std::find_if(streams_.begin(), streams_.end(),
                     [id](const Stream &s) { return s.id == id; });
    if (it == streams_.end())
        return;
    advance();
    streams_.erase(it);
    scheduleNext();
}

double
HbmModel::utilization(Cycles windowStart)
{
    advance();
    const Cycles now = sim_.now();
    if (now <= windowStart)
        return 0.0;
    const double window = static_cast<double>(now - windowStart);
    return windowBytes() / (window * peak_);
}

void
HbmModel::markWindow()
{
    window_base_ = bytes_moved_;
}

void
HbmModel::registerStats(StatRegistry &registry,
                        const std::string &prefix) const
{
    registry.addGauge(prefix + ".peak_bytes_per_cycle",
                      "configured peak HBM bandwidth")
        .set(peak_);
    registry.addFormula(
        prefix + ".bytes_moved",
        [this] { return bytes_moved_; },
        "bytes fully transferred (in-flight bytes credited at the "
        "next stream membership change)");
    registry.addFormula(
        prefix + ".active_streams",
        [this] { return static_cast<double>(activeStreams()); },
        "in-flight DMA streams");
}

} // namespace v10
