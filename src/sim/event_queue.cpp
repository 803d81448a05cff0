#include "sim/event_queue.h"

namespace v10 {

void
EventQueue::cancel(EventId id)
{
    const auto it = std::find_if(
        heap_.begin(), heap_.end(),
        [id](const Entry &entry) { return entry.id == id; });
    if (it == heap_.end())
        return;
    const auto hole = static_cast<std::size_t>(it - heap_.begin());
    *it = std::move(heap_.back());
    heap_.pop_back();
    if (hole < heap_.size())
        siftFrom(hole);
}

void
EventQueue::siftFrom(std::size_t i)
{
    // The moved-in entry either rises or sinks, never both.
    while (i > 0 && later(heap_[(i - 1) / 2], heap_[i])) {
        std::swap(heap_[i], heap_[(i - 1) / 2]);
        i = (i - 1) / 2;
    }
    while (true) {
        std::size_t first = i;
        const std::size_t left = 2 * i + 1;
        if (left < heap_.size() && later(heap_[first], heap_[left]))
            first = left;
        if (left + 1 < heap_.size() &&
            later(heap_[first], heap_[left + 1]))
            first = left + 1;
        if (first == i)
            return;
        std::swap(heap_[i], heap_[first]);
        i = first;
    }
}

Cycles
EventQueue::takeNext(EventFn &fn)
{
    if (heap_.empty())
        return kCycleMax;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Cycles when = heap_.back().when;
    fn = std::move(heap_.back().fn);
    heap_.pop_back();
    return when;
}

} // namespace v10
