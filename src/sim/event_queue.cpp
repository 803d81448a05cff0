#include "sim/event_queue.h"

#include <algorithm>

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
    const Key last = heap_.back();
    heap_.pop_back();
    if (hole < heap_.size())
        siftFrom(hole, last);
}

EventId
EventQueue::reschedule(EventId id, Cycles when)
{
    const std::size_t i = find(id);
    if (i == heap_.size())
        return kNoEvent;
    const EventId fresh = next_id_++;
    siftFrom(i, Key{when, fresh, heap_[i].slot});
    return fresh;
}

void
EventQueue::siftFrom(std::size_t i, const Key &key)
{
    // The key either rises or sinks, never both.
    if (i > 0 && order(key) < order(heap_[(i - 1) / 2]))
        siftUp(i, key);
    else
        siftDown(i, key);
}

} // namespace v10
