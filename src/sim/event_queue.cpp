#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace qmb::sim {

EventId EventQueue::push(SimTime at, EventCallback&& cb, SimTime sched,
                         std::uint64_t lineage, const SchedPath* path) {
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slot_gen_.size());
    slot_gen_.push_back(0);
    slot_cb_.emplace_back();
    slot_key_.emplace_back();
  }
  slot_cb_[slot] = std::move(cb);
  slot_key_[slot] = SlotKey{path != nullptr ? *path : SchedPath{{sched}}, lineage};
  heap_.push_back(Entry{at, seq, slot, slot_gen_[slot]});
  std::push_heap(heap_.begin(), heap_.end(), later());
  ++live_;
  return EventId(slot, slot_gen_[slot]);
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slot_gen_.size() || slot_gen_[id.slot_] != id.gen_) {
    return false;
  }
  // Orphan the heap entry and invalidate outstanding ids. The slot itself
  // stays out of the free list until the entry leaves the heap, so its key
  // is not overwritten under a queued corpse.
  ++slot_gen_[id.slot_];
  slot_cb_[id.slot_] = EventCallback{};  // cancelled callbacks release captures now
  --live_;
  compact_if_stale();
  return true;
}

void EventQueue::compact_if_stale() {
  // Sweep once dead entries exceed half the heap: mass cancellation (e.g. a
  // NACK-timeout storm being acked) must return memory pressure to O(live)
  // rather than O(ever-scheduled). Amortized O(1) per cancel: a sweep costs
  // O(n) but at least n/2 cancels funded it.
  if (heap_.size() < kCompactFloor || heap_.size() <= 2 * live_) return;
  std::erase_if(heap_, [this](const Entry& e) {
    if (is_live(e)) return false;
    free_slots_.push_back(e.slot);
    return true;
  });
  std::make_heap(heap_.begin(), heap_.end(), later());
}

void EventQueue::drop_cancelled_head() {
  // Precondition live_ > 0: a live entry stops the loop before the heap
  // runs dry. Each corpse is popped once, so this is amortized O(log n).
  while (!is_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), later());
    free_slots_.push_back(heap_.back().slot);
    heap_.pop_back();
  }
}

std::optional<SimTime> EventQueue::next_time() {
  if (live_ == 0) return std::nullopt;
  drop_cancelled_head();
  return heap_.front().at;
}

EventQueue::Fired EventQueue::pop() {
  assert(live_ > 0 && "pop() on empty EventQueue");
  drop_cancelled_head();
  std::pop_heap(heap_.begin(), heap_.end(), later());
  const Entry e = heap_.back();
  heap_.pop_back();
  ++slot_gen_[e.slot];  // invalidates outstanding ids
  free_slots_.push_back(e.slot);
  --live_;
  // Nothing writes the slot before the next push, so its key and callback
  // are read after the release; the callback moves straight into Fired.
  const SlotKey& key = slot_key_[e.slot];
  return Fired{e.at, std::move(slot_cb_[e.slot]), key.path.hops[0], key.lineage, key.path};
}

}  // namespace qmb::sim
