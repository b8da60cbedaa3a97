#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
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
    slot_link_.emplace_back();
  }
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t ord = seq << kSlotBits | slot;
  const SlotKey key{path != nullptr ? *path : SchedPath{{sched}}, lineage};
  if (key != SlotKey{}) keyed_ = true;
  if (keyed_) slot_key_[slot] = key;  // unkeyed slots keep their zero key
  slot_cb_[slot] = std::move(cb);
  slot_ord_[slot] = ord;
  if (at > base_) {
    link(slot, at);
  } else {
    heap_.push_back(Entry{at, ord});
    in_order([](auto... args) { std::push_heap(args...); });
  }
  ++live_;
  return EventId(slot, static_cast<std::uint32_t>(seq));
}

void EventQueue::link(std::uint32_t slot, SimTime at) {
  const auto diff = static_cast<std::uint64_t>(at.picos() ^ base_.picos());
  const int b = std::bit_width(diff) - 1;
  const std::uint64_t bit = std::uint64_t{1} << b;
  slot_link_[slot] = Link{at, (bucket_mask_ & bit) != 0 ? bucket_head_[b] : kNoSlot};
  bucket_head_[b] = slot;
  bucket_mask_ |= bit;
  ++bucketed_;
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slot_ord_.size()) return false;
  const std::uint64_t ord = slot_ord_[id.slot_];
  if (ord == kNoEvent || static_cast<std::uint32_t>(ord >> kSlotBits) != id.gen_) return false;
  // Orphan the entry and invalidate outstanding ids. The slot itself stays
  // out of the free list until the entry leaves the queue, so its key and
  // bucket link are not overwritten under a queued corpse.
  slot_ord_[id.slot_] = kNoEvent;
  slot_cb_[id.slot_] = EventCallback{};  // cancelled callbacks release captures now
  --live_;
  compact_if_stale();
  return true;
}

void EventQueue::compact_if_stale() {
  // Sweep once dead entries exceed half the queue: mass cancellation (e.g. a
  // NACK-timeout storm being acked) must return memory pressure to O(live)
  // rather than O(ever-scheduled). Amortized O(1) per cancel: a sweep costs
  // O(n) but at least n/2 cancels funded it.
  const std::size_t entries = heap_entries();
  if (entries < kCompactFloor || entries <= 2 * live_) return;
  std::erase_if(heap_, [this](const Entry& e) {
    if (is_live(e)) return false;
    free_slots_.push_back(slot_of(e.ord));
    return true;
  });
  in_order([](auto... args) { std::make_heap(args...); });
  for (std::uint64_t m = bucket_mask_; m != 0; m &= m - 1) {
    const int b = std::countr_zero(m);
    std::uint32_t* next = &bucket_head_[b];
    while (*next != kNoSlot) {
      const std::uint32_t slot = *next;
      if (slot_ord_[slot] != kNoEvent) {
        next = &slot_link_[slot].next;
        continue;
      }
      *next = slot_link_[slot].next;
      free_slots_.push_back(slot);
      --bucketed_;
    }
    if (bucket_head_[b] == kNoSlot) bucket_mask_ &= ~(std::uint64_t{1} << b);
  }
}

bool EventQueue::settle_head(SimTime deadline) {
  // Each dead head is popped once, so this is amortized O(log n).
  while (!heap_.empty()) {
    if (is_live(heap_.front())) return true;
    in_order([](auto... args) { std::pop_heap(args...); });
    free_slots_.push_back(slot_of(heap_.back().ord));
    heap_.pop_back();
  }
  // The heap ran dry, so every live event is bucketed. The lowest non-empty
  // bucket holds the earliest: every higher bucket's entries differ from
  // base_ in a higher bit. Its minimum time becomes the new base; when only
  // dead entries sit there, the heap stays empty and the next bucket is
  // tried.
  do {
    const int b = std::countr_zero(bucket_mask_);
    SimTime min_at = SimTime::max();
    for (std::uint32_t s = bucket_head_[b]; s != kNoSlot; s = slot_link_[s].next) {
      min_at = std::min(min_at, slot_link_[s].at);
    }
    if (min_at > deadline) return false;
    // Redistribute the bucket under the new base: its entries at min_at
    // enter the heap, the later ones move to strictly lower buckets (they
    // share min_at's bits from b up) and the dead return to the free list.
    base_ = min_at;
    bucket_mask_ &= ~(std::uint64_t{1} << b);
    for (std::uint32_t s = bucket_head_[b]; s != kNoSlot;) {
      const Link l = slot_link_[s];
      --bucketed_;
      if (slot_ord_[s] == kNoEvent) {
        free_slots_.push_back(s);
      } else if (l.at > base_) {
        link(s, l.at);
      } else {
        heap_.push_back(Entry{l.at, slot_ord_[s]});
      }
      s = l.next;
    }
  } while (heap_.empty());
  in_order([](auto... args) { std::make_heap(args...); });
  return true;
}

std::optional<SimTime> EventQueue::next_time() {
  if (live_ == 0) return std::nullopt;
  if (heap_.empty() || !is_live(heap_.front())) settle_head(SimTime::max());
  return heap_.front().at;
}

std::optional<EventQueue::Fired> EventQueue::pop_due(SimTime deadline) {
  if (live_ == 0) return std::nullopt;
  if ((heap_.empty() || !is_live(heap_.front())) && !settle_head(deadline)) return std::nullopt;
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
