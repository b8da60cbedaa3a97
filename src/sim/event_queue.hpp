// Cancellable pending-event queue for the discrete-event engine.
//
// A radix-bucketed queue keyed on (time, sequence): a binary heap holds the
// entries due at or before a moving base time, and every later entry waits,
// unsorted, in one of 64 buckets picked by the highest bit in which its fire
// time differs from the base (a monotone radix heap: Ahuja, Mehlhorn, Orlin
// and Tarjan, JACM 1990). A push is O(1) unless it lands at or before the
// base; when the heap runs dry, the lowest non-empty bucket's earliest time
// becomes the new base, its entries at that time enter the heap and the rest
// move to strictly lower buckets, so each entry is bucketed at most once
// per bit of its distance from the base. There is no bucket width to tune:
// fire times are integer picoseconds and the engine never runs backwards.
// A push at or before the base (a coordinator's injection after a peek, a
// push after a pop_due that stopped at its deadline) goes straight into the
// heap, so any push order is correct. The sequence number breaks ties in
// insertion order, which makes the whole simulation deterministic: two
// events scheduled for the same instant always fire in the order they were
// scheduled. Equal fire times share a bucket and enter the heap together,
// so the heap's comparator alone decides every tie.
//
// The (time, insertion) tie-break is a CONTRACT, not an implementation
// detail: the parallel (PDES) engine partitions the simulation into
// per-domain queues and must merge cross-domain work back into an order
// that reproduces this sequential tie-break. Concretely:
//   1. pop_due() and pop() return live events in strictly non-decreasing
//      key order — equal-key events fire exactly in push() order;
//   2. seq is assigned at push() time and never reordered by cancellation
//      or compaction;
//   3. total_scheduled() counts every push ever made, so two executions
//      that schedule the same events agree on it regardless of interleaving
//      with pops.
//
// Sharded queues extend the key to (at, path, lineage, seq): path is the
// bounded causal-ancestry record (SchedPath — the event's own scheduling
// instant followed by its ancestors'), and lineage is the coordinator's
// injection stamp of the causal chain's anchor (the cross-domain delivery
// — or 0 for chains rooted in the pre-run setup). This reproduces the
// sequential engine's insertion order without global sequencing: a
// sequential run assigns seq in execution order, which is nondecreasing in
// scheduling instant — and within one instant, insertion order equals the
// pushers' execution order, which the comparator recovers recursively from
// the ancestors' scheduling instants (hops[1..]). Chains that are fully
// time-symmetric past kDepth are ordered by the anchor stamp, which the
// coordinator assigns in merge order — itself the senders' sequential
// order, inductively. While every queued path and lineage is zero, the
// extended key degenerates to (at, seq) bit-for-bit, so a queue compares by
// (at, seq) alone until its first push with a non-zero path or lineage
// makes it keyed; it never goes back. A sequential engine's queue never
// becomes keyed; a shard's does as soon as a push carries a causal stamp.
// Window merges sort deferred cross-domain sends by the same
// (emit, path, lineage) key, falling back to (domain, per-domain order)
// only for pre-run-rooted ties — where domain blocks are ascending so that
// fallback is rank order, matching the sequential setup loop.
// test_event_queue's TieBreakContract test pins this down.
//
// Cancellation is O(1) and allocation-free: every live event owns a slot
// that records its entry's ord (seq and slot, packed); cancelling clears the
// record, which orphans the entry (dropped when it reaches the heap's head
// or its bucket is redistributed, or swept by compaction when dead entries
// outnumber live ones — NACK-timeout storms cancel thousands of armed
// retransmit timers and must not leave the queue full of corpses). No
// hashing and no per-event allocation in the common case: callbacks are
// small-buffer-optimized (sim::Callback), slots are recycled through a free
// list, and a bucket chains its slots through per-slot links.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace qmb::sim {

using EventCallback = Callback;

/// Bounded causal-ancestry record for sharded queues: the scheduling
/// instants of an event and its nearest ancestors (hops[0] = the event's
/// own sched, hops[1] = its parent's, ...). The window merge compares these
/// lexicographically to order equal-instant cross-domain sends the way the
/// sequential engine inserted their emitting events; beyond kDepth the
/// chains are time-symmetric and the anchor lineage stamp decides (see the
/// tie-break contract above). Sequential queues never populate paths.
struct SchedPath {
  static constexpr std::size_t kDepth = 4;
  std::array<SimTime, kDepth> hops{};

  friend bool operator==(const SchedPath&, const SchedPath&) = default;
};

/// Identifies a scheduled event so it can be cancelled. An id is a
/// (slot, generation) pair, the generation being the low 32 bits of the
/// push's sequence number: slots are reused, sequence numbers are not, so a
/// stale id cannot cancel a later event that inherited its slot unless that
/// event was pushed a multiple of 2^32 pushes later. A sharded engine
/// additionally stamps the owning domain so cancel() can find the right
/// per-domain queue (0 for sequential engines).
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return slot_ != kInvalidSlot; }
  friend constexpr bool operator==(EventId, EventId) = default;

 private:
  friend class EventQueue;
  friend class Engine;
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;
  constexpr EventId(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kInvalidSlot;
  std::uint32_t gen_ = 0;
  std::uint32_t shard_ = 0;
};

class EventQueue {
 public:
  /// Enqueues a callback to fire at absolute time `at`. The ordering key is
  /// (at, path, lineage, seq) — see the tie-break contract above; the
  /// sequential engine passes the zero defaults, which makes the key
  /// degenerate to the historical (at, seq). When `path` is null, a path of
  /// {sched, 0, 0, 0} is stored (path.hops[0] is always the sched instant).
  /// The callback is moved once, into its slot. Throws std::length_error,
  /// before changing anything, on the push after 2^40 - 1 pushes or when
  /// 2^24 slots are pending (live plus cancelled-but-unswept), the limits
  /// of a heap entry's packed (seq, slot).
  EventId push(SimTime at, EventCallback&& cb, SimTime sched = SimTime::zero(),
               std::uint64_t lineage = 0, const SchedPath* path = nullptr);

  /// Cancels a pending event. Returns false if it already fired, was already
  /// cancelled, or the id is invalid.
  bool cancel(EventId id);

  /// Time of the earliest live event, or nullopt when empty. Drops the
  /// cancelled entries sitting above it, so a cancelled head costs one
  /// amortized O(log n) pop instead of a scan of the heap; refills the heap
  /// from the lowest bucket when it runs dry.
  [[nodiscard]] std::optional<SimTime> next_time();

  /// A popped event. The callback moves from its slot straight into Fired;
  /// sched/lineage/path echo what push() recorded, so a sharded engine can
  /// propagate the running event's causal stamp to whatever it schedules.
  struct Fired {
    SimTime at;
    EventCallback cb;
    SimTime sched;
    std::uint64_t lineage;
    SchedPath path;
  };

  /// Removes and returns the earliest live event if it fires at or before
  /// `deadline`, else nullopt (also when empty). One call drops the
  /// cancelled entries above the head, checks the head's time and pops it,
  /// so an engine loop inspects the head once per event. A refill that
  /// would move the base past `deadline` is not made.
  std::optional<Fired> pop_due(SimTime deadline);

  /// pop_due without a deadline. Precondition: !empty().
  Fired pop();

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Total events ever scheduled; useful as a cheap determinism fingerprint.
  [[nodiscard]] std::uint64_t total_scheduled() const { return next_seq_ - 1; }

  /// Entries currently held in the heap and the buckets, live plus
  /// cancelled-but-unswept. Exposed so tests can assert the compaction
  /// invariant: past kCompactFloor entries, dead entries never exceed the
  /// live count.
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size() + bucketed_; }

 private:
  // Heap entries are 16-byte PODs: the fire time and ord = seq << 24 | slot.
  // seq is unique, so comparing ords orders exactly as comparing seqs does,
  // and an entry finds its slot without a second field. The callback and
  // the sharded ordering key live in the slot tables (stable storage,
  // written once per push), so sift swaps are plain copies instead of SBO
  // relocations of a 100-byte callback or 40 bytes of ancestry.
  struct Entry {
    SimTime at;
    std::uint64_t ord = 0;
  };
  static_assert(sizeof(Entry) == 16);

  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << (64 - kSlotBits)) - 1;
  // slot_ord_ value of a slot with no pending event; seq starts at 1, so no
  // entry's ord is 0.
  static constexpr std::uint64_t kNoEvent = 0;
  // Ends a bucket's chain of slots.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  [[nodiscard]] static std::uint32_t slot_of(std::uint64_t ord) {
    return static_cast<std::uint32_t>(ord & (kMaxSlots - 1));
  }

  // The sharded part of the ordering key, per slot. A slot is recycled only
  // after its entry has left the queue (fired, dropped at the head or on a
  // redistribution, or swept), so the key an entry compares by never
  // changes under it, even while the entry waits as a cancelled corpse.
  struct SlotKey {
    SchedPath path;
    std::uint64_t lineage = 0;

    friend bool operator==(const SlotKey&, const SlotKey&) = default;
  };

  // Min-heap orders for std::push_heap etc., which build a max-heap on their
  // comparator, hence the inversion. An unkeyed queue holds only zero keys,
  // so (at, ord) is its whole contract key and no comparison touches a slot
  // table. A keyed queue reads the slot keys only when fire times tie.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.ord > b.ord;
    }
  };
  struct KeyedLater {
    const SlotKey* keys;
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      const SlotKey& ka = keys[slot_of(a.ord)];
      const SlotKey& kb = keys[slot_of(b.ord)];
      for (std::size_t h = 0; h < SchedPath::kDepth; ++h) {
        if (ka.path.hops[h] != kb.path.hops[h]) return ka.path.hops[h] > kb.path.hops[h];
      }
      if (ka.lineage != kb.lineage) return ka.lineage > kb.lineage;
      return a.ord > b.ord;
    }
  };

  // Runs a heap algorithm under the queue's current order: one branch per
  // heap operation instead of one per comparison.
  // Callers pass e.g. [](auto... args) { std::push_heap(args...); }.
  template <typename HeapOp>
  void in_order(HeapOp op) {
    if (keyed_) {
      op(heap_.begin(), heap_.end(), KeyedLater{slot_key_.data()});
    } else {
      op(heap_.begin(), heap_.end(), Later{});
    }
  }

  // Below this size the dead-entry ratio is irrelevant; avoids re-heapifying
  // tiny queues on every other cancel.
  static constexpr std::size_t kCompactFloor = 64;

  // A bucketed slot's fire time and the next slot in its bucket's chain.
  struct Link {
    SimTime at;
    std::uint32_t next = kNoSlot;
  };

  [[nodiscard]] bool is_live(const Entry& e) const { return slot_ord_[slot_of(e.ord)] == e.ord; }
  // Chains `slot` into the bucket of the highest bit in which `at` differs
  // from base_. Precondition: at > base_.
  void link(std::uint32_t slot, SimTime at);
  // Makes the heap's head the earliest live event: drops dead heads and,
  // when the heap runs dry, refills it from the lowest bucket. Returns false,
  // never moving base_ past `deadline`, when the earliest live event is
  // bucketed past it. Precondition: live_ > 0.
  bool settle_head(SimTime deadline);
  void compact_if_stale();

  std::vector<Entry> heap_;                // the entries with at <= base_
  std::vector<std::uint64_t> slot_ord_;    // slot -> its pending entry's ord, or kNoEvent
  std::vector<EventCallback> slot_cb_;     // slot -> the pending callback
  std::vector<SlotKey> slot_key_;          // slot -> path/lineage; written once keyed_
  std::vector<Link> slot_link_;            // slot -> its bucket link, while bucketed
  std::vector<std::uint32_t> free_slots_;  // slots whose entry has left the queue
  // Bucket b chains the slots with at > base_ whose at ^ base_ has its
  // highest set bit at b; bit b of bucket_mask_ marks it non-empty (its head
  // is stale otherwise). base_ only rises, so base_ >= 0 and bit 63 is unused.
  std::array<std::uint32_t, 64> bucket_head_{};
  std::uint64_t bucket_mask_ = 0;
  std::size_t bucketed_ = 0;  // entries in buckets, live and dead
  SimTime base_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  // Set by the first push with a non-zero key and never cleared. Until then
  // every slot key is zero and stays unwritten.
  bool keyed_ = false;
};

}  // namespace qmb::sim
