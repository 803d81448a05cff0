#include "sim/event_queue.h"

namespace v10 {

std::size_t
EventQueue::find(EventId id) const
{
    const auto it =
        std::find_if(heap_.begin(), heap_.end(),
                     [id](const Key &key) { return key.id == id; });
    return static_cast<std::size_t>(it - heap_.begin());
}

void
EventQueue::cancel(EventId id)
{
    const std::size_t hole = find(id);
    if (hole == heap_.size())
        return;
    const std::uint32_t slot = heap_[hole].slot;
    fns_[slot] = nullptr;
    free_.push_back(slot);
    heap_[hole] = heap_.back();
    heap_.pop_back();
    if (hole < heap_.size())
        siftFrom(hole);
}

EventId
EventQueue::reschedule(EventId id, Cycles when)
{
    const std::size_t i = find(id);
    if (i == heap_.size())
        return kNoEvent;
    const EventId fresh = next_id_++;
    heap_[i].when = when;
    heap_[i].id = fresh;
    siftFrom(i);
    return fresh;
}

void
EventQueue::siftFrom(std::size_t i)
{
    // The replaced key either rises or sinks, never both.
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
    const Key key = heap_.back();
    heap_.pop_back();
    fn = std::move(fns_[key.slot]);
    free_.push_back(key.slot);
    return key.when;
}

} // namespace v10
