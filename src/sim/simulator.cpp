#include "sim/simulator.h"

#include "common/log.h"

namespace v10 {

void
Simulator::pastPanic(Cycles when) const
{
    V10_PANIC("Simulator::at: scheduling into the past (", when,
              " < ", now_, ")");
}

void
Simulator::overflowPanic() const
{
    V10_PANIC("Simulator::after: cycle overflow");
}

void
Simulator::intervalPanic() const
{
    V10_PANIC("Simulator::every: interval must be > 0 cycles");
}

void
Simulator::firePeriodic(std::size_t index)
{
    Periodic &p = *periodics_[index];
    p.pending = kNoEvent;
    p.fn();
    // Re-arm after the callback (matching a self-rescheduling event
    // handler's sequence order). The callback may have cancelled
    // this periodic; then the chain ends here.
    if (p.active)
        p.pending = after(p.interval,
                          [this, index] { firePeriodic(index); });
}

void
Simulator::cancelEvery(PeriodicId id)
{
    if (id == kNoPeriodic || id > periodics_.size())
        return;
    Periodic &p = *periodics_[static_cast<std::size_t>(id - 1)];
    if (!p.active)
        return;
    p.active = false;
    if (p.pending != kNoEvent) {
        cancel(p.pending);
        p.pending = kNoEvent;
    }
}

Cycles
Simulator::run()
{
    while (step()) {
    }
    return now_;
}

Cycles
Simulator::runUntil(Cycles limit)
{
    while (queue_.nextCycle() <= limit && step()) {
    }
    if (now_ < limit)
        now_ = limit;
    return now_;
}

} // namespace v10
