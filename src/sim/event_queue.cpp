#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace qmb::sim {

EventId EventQueue::push(SimTime at, EventCallback&& cb, SimTime sched,
                         std::uint64_t lineage, const SchedPath* path) {
  // An entry's ord packs seq above the slot; past either field's width the
  // order would silently wrap, so refuse the push instead.
  if (next_seq_ > kMaxSeq) throw std::length_error("EventQueue: more than 2^40 - 1 pushes");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slot_ord_.size() == kMaxSlots) {
      throw std::length_error("EventQueue: more than 2^24 pending slots");
    }
    slot = static_cast<std::uint32_t>(slot_ord_.size());
    slot_ord_.push_back(kNoEvent);
    slot_cb_.emplace_back();
    slot_key_.emplace_back();
  }
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t ord = seq << kSlotBits | slot;
  const SlotKey key{path != nullptr ? *path : SchedPath{{sched}}, lineage};
  if (key != SlotKey{}) keyed_ = true;
  if (keyed_) slot_key_[slot] = key;  // unkeyed slots keep their zero key
  slot_cb_[slot] = std::move(cb);
  slot_ord_[slot] = ord;
  heap_.push_back(Entry{at, ord});
  in_order([](auto... args) { std::push_heap(args...); });
  ++live_;
  return EventId(slot, static_cast<std::uint32_t>(seq));
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slot_ord_.size()) return false;
  const std::uint64_t ord = slot_ord_[id.slot_];
  if (ord == kNoEvent || static_cast<std::uint32_t>(ord >> kSlotBits) != id.gen_) return false;
  // Orphan the heap entry and invalidate outstanding ids. The slot itself
  // stays out of the free list until the entry leaves the heap, so its key
  // is not overwritten under a queued corpse.
  slot_ord_[id.slot_] = kNoEvent;
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
    free_slots_.push_back(slot_of(e.ord));
    return true;
  });
  in_order([](auto... args) { std::make_heap(args...); });
}

void EventQueue::drop_cancelled_head() {
  // Precondition: the head is dead and live_ > 0, so a live entry stops the
  // loop before the heap runs dry. Each corpse is popped once, so this is
  // amortized O(log n). Callers test the head inline: it is usually live.
  do {
    in_order([](auto... args) { std::pop_heap(args...); });
    free_slots_.push_back(slot_of(heap_.back().ord));
    heap_.pop_back();
  } while (!is_live(heap_.front()));
}

std::optional<SimTime> EventQueue::next_time() {
  if (live_ == 0) return std::nullopt;
  if (!is_live(heap_.front())) drop_cancelled_head();
  return heap_.front().at;
}

std::optional<EventQueue::Fired> EventQueue::pop_due(SimTime deadline) {
  if (live_ == 0) return std::nullopt;
  if (!is_live(heap_.front())) drop_cancelled_head();
  if (heap_.front().at > deadline) return std::nullopt;
  in_order([](auto... args) { std::pop_heap(args...); });
  const Entry e = heap_.back();
  heap_.pop_back();
  const std::uint32_t slot = slot_of(e.ord);
  slot_ord_[slot] = kNoEvent;  // invalidates outstanding ids
  free_slots_.push_back(slot);
  --live_;
  // Nothing writes the slot before the next push, so its key and callback
  // are read after the release; the callback moves straight into Fired.
  const SlotKey& key = slot_key_[slot];
  return std::optional<Fired>(std::in_place, e.at, std::move(slot_cb_[slot]), key.path.hops[0],
                              key.lineage, key.path);
}

EventQueue::Fired EventQueue::pop() {
  assert(live_ > 0 && "pop() on empty EventQueue");
  return std::move(*pop_due(SimTime::max()));
}

}  // namespace qmb::sim
