/**
 * @file
 * The simulation kernel: one clock and one event queue, with the run
 * loop used by every experiment. Components (functional units, the
 * HBM model, the schedulers, samplers) schedule callbacks at absolute
 * or relative cycles; the kernel advances the clock to each event in
 * (cycle, insertion sequence) order, so same-cycle events fire in the
 * order they were scheduled and every run is deterministic.
 *
 * Scheduling is allocation-free for the common small closure: at() /
 * after() / every() build the callback in place in one of the queue's
 * SmallFn-based EventFn slots. step() is the one dispatch path: the
 * queue pops the earliest event, sets the clock and runs the callback
 * in its slot (EventQueue::fireNext), so no callback is moved or
 * copied on the way to firing. run() and runUntil() are step() loops,
 * so there is one event order.
 */

#ifndef V10_SIM_SIMULATOR_H
#define V10_SIM_SIMULATOR_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace v10 {

/**
 * Discrete-event simulation kernel over one EventQueue ordered by
 * (cycle, insertion sequence).
 */
class V10_DOMAIN_LOCAL Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated cycle. */
    Cycles now() const { return now_; }

    /** Schedule @p cb at absolute cycle @p when (>= now()). */
    template <typename F>
    EventId
    at(Cycles when, F &&cb)
    {
        if (when < now_)
            pastPanic(when);
        return queue_.schedule(when, std::forward<F>(cb));
    }

    /** Schedule @p cb @p delta cycles from now. */
    template <typename F>
    EventId
    after(Cycles delta, F &&cb)
    {
        if (delta > kCycleMax - now_)
            overflowPanic();
        return queue_.schedule(now_ + delta, std::forward<F>(cb));
    }

    /**
     * Fire @p cb every @p interval cycles (> 0), starting one
     * interval from now, until cancelEvery(). The callback is stored
     * once; each tick re-arms with a tiny inline closure, so periodic
     * sampling is allocation-free.
     * @return a handle usable with cancelEvery().
     */
    template <typename F>
    PeriodicId
    every(Cycles interval, F &&cb)
    {
        if (interval == 0)
            intervalPanic();
        periodics_.push_back(std::make_unique<Periodic>());
        Periodic &p = *periodics_.back();
        p.interval = interval;
        p.fn = EventQueue::EventFn(std::forward<F>(cb));
        p.active = true;
        const auto id =
            static_cast<PeriodicId>(periodics_.size());
        const std::size_t index = periodics_.size() - 1;
        p.pending = after(interval,
                          [this, index] { firePeriodic(index); });
        return id;
    }

    /** Stop a periodic event (no-op on kNoPeriodic / done ids). */
    void cancelEvery(PeriodicId id);

    /** Cancel a pending event (no-op if already fired). */
    void cancel(EventId id) { queue_.cancel(id); }

    /**
     * Move pending event @p id to @p delta cycles from now, keeping
     * its callback; it fires as if cancelled and scheduled anew.
     * @return its new id, or kNoEvent when @p id is not pending.
     */
    EventId
    rescheduleAfter(EventId id, Cycles delta)
    {
        if (delta > kCycleMax - now_)
            overflowPanic();
        return queue_.reschedule(id, now_ + delta);
    }

    /** Run until the event queue drains. @return the final cycle. */
    Cycles run();

    /**
     * Run until the queue drains or @p stop returns true (checked
     * after each event).
     * @return the final cycle.
     */
    template <typename Stop>
    Cycles
    run(Stop &&stop)
    {
        while (step()) {
            if (stop())
                break;
        }
        return now_;
    }

    /**
     * Run until the clock reaches @p limit or the queue drains.
     * Events at exactly @p limit still fire; the clock ends at
     * @p limit even when the queue drained earlier.
     */
    Cycles runUntil(Cycles limit);

    /**
     * Fire exactly one event (the next by (cycle, insertion seq)).
     * @return true if an event fired, false if the queue is empty.
     */
    bool
    step()
    {
        if (!queue_.fireNext(now_))
            return false;
        ++events_run_;
        return true;
    }

    /** True when no events are pending. */
    bool idle() const { return queue_.empty(); }

    /** Number of events executed so far. */
    std::uint64_t eventsRun() const { return events_run_; }

  private:
    /** One every() registration; stable address (callbacks may
     * register further periodics while one is firing). */
    struct Periodic
    {
        Cycles interval = 0;
        EventQueue::EventFn fn;
        EventId pending = kNoEvent;
        bool active = false;
    };

    [[noreturn]] void pastPanic(Cycles when) const;
    [[noreturn]] void overflowPanic() const;
    [[noreturn]] void intervalPanic() const;

    /** Run one periodic tick, then re-arm. */
    void firePeriodic(std::size_t index);

    EventQueue queue_;
    std::vector<std::unique_ptr<Periodic>> periodics_;
    Cycles now_ = 0;
    std::uint64_t events_run_ = 0;
};

} // namespace v10

#endif // V10_SIM_SIMULATOR_H
