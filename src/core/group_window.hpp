// One rank's two-deep operation window over its collective schedule — the
// one step-advance state machine every collective engine shares.
//
// Consecutive operations overlap: a peer that completed operation k may
// send its first message of k+1 before this rank finished k, but never k+2
// (its completion of k+1 transitively required everyone to finish k).
// GroupWindow keeps two operation slots, buffers early arrivals, and
// recycles a slot only once its operation completed.
//
// A slot is the paper's one record per operation (Sec. 6.3): the step it
// is in and bit vectors, over the schedule's edge ids, of the edges it has
// sent and the edges that have arrived. The window walks the schedule
// itself. Entering a step issues its sends (a key repeated across steps
// goes out once), a step is consumed once all its waits have arrived, and
// the operation completes after the last step. A value kind keeps each
// edge's payload in a per-edge value array (sized when the window is
// built) and folds a step's payloads into the accumulator as the step is
// consumed. A barrier carries no payload: its slots keep no value array
// and fold nothing.
//
// The host-level executors and coll::NicGroupEngine (nic_group_engine.hpp,
// the one group engine of every NIC scheme) instantiate it and add only
// their hooks: how an edge is sent and what completion costs, plus, in the
// NIC engine, the NACK timer armed before step 0 and cancelled when a slot
// is recycled. on_arrival classifies every message and leaves the counting
// to its caller.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/schedule.hpp"

namespace qmb::coll {

/// Dense table of per-group state indexed by group id, grown on demand.
/// Group ids are handed out consecutively per cluster, so a node's table is
/// as long as the largest id it joined; entries never move once created.
template <typename T>
class GroupTable {
 public:
  [[nodiscard]] T* find(std::uint32_t id) const {
    return id < items_.size() ? items_[id].get() : nullptr;
  }
  [[nodiscard]] bool contains(std::uint32_t id) const { return find(id) != nullptr; }

  /// Creates (or replaces) the entry for `id` from `args`.
  template <typename... Args>
  T& emplace(std::uint32_t id, Args&&... args) {
    if (id >= items_.size()) items_.resize(static_cast<std::size_t>(id) + 1);
    items_[id] = std::make_unique<T>(std::forward<Args>(args)...);
    return *items_[id];
  }
  void erase(std::uint32_t id) {
    if (id < items_.size()) items_[id].reset();
  }

 private:
  std::vector<std::unique_ptr<T>> items_;
};

/// Fixed-size bit vector over one rank's edge ids. Up to 64 edges (every
/// schedule but a wide star's root) fit in one inline word.
class EdgeBits {
 public:
  explicit EdgeBits(std::size_t edges) : more_(edges > 64 ? (edges + 63) / 64 : 0, 0) {}

  [[nodiscard]] bool test(EdgeId id) const { return ((word(id) >> (id & 63)) & 1) != 0; }
  /// Sets the bit; false when it was already set.
  bool set(EdgeId id) {
    std::uint64_t& w = more_.empty() ? first_ : more_[id >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((w & bit) != 0) return false;
    w |= bit;
    return true;
  }
  void clear() {
    first_ = 0;
    std::fill(more_.begin(), more_.end(), 0);
  }

 private:
  [[nodiscard]] std::uint64_t word(EdgeId id) const {
    return more_.empty() ? first_ : more_[id >> 6];
  }

  std::uint64_t first_ = 0;          // the bits, when there are at most 64
  std::vector<std::uint64_t> more_;  // the bits, otherwise
};

/// How GroupWindow::on_arrival classified one message.
enum class Arrival : std::uint8_t {
  kAccepted,   // recorded against the running operation
  kDuplicate,  // that edge had already arrived (a retransmission)
  kEarly,      // buffered until this rank starts the operation
  kStale,      // for an operation this rank already completed
};

/// Per-operation state for engines that keep none of their own.
struct NoSlotState {};

template <typename SlotState = NoSlotState>
class GroupWindow {
 public:
  using DoneFn = std::function<void(std::int64_t result)>;

  /// One operation in flight. Hooks read it; the window writes every field
  /// except `state`, which belongs to the engine.
  struct Slot {
    explicit Slot(std::size_t edges) : sent(edges), arrived(edges) {}

    std::uint32_t seq = 0;
    bool in_use = false;   // bound to `seq`
    bool active = false;   // this rank started the operation
    bool complete = false;
    std::int64_t acc = 0;  // running value; the result once complete
    DoneFn done;           // start()'s completion callback
    std::size_t step = 0;  // the step it waits in; step_count() once complete
    EdgeBits sent;         // edges this operation has issued
    EdgeBits arrived;      // edges that have arrived for it
    std::vector<std::uint64_t> stray;  // keys of arrivals on no schedule edge
    SlotState state;

    struct Early {
      int peer;
      std::uint32_t tag;
      EdgeId id;  // kNoEdge when the message is on no schedule edge
      std::int64_t value;
    };
    std::vector<Early> early;  // arrivals before start(), replayed by it
    /// Value kinds only: per-edge payloads, written by each edge's first
    /// arrival and folded when its step is consumed; only arrived edges are
    /// ever read.
    std::vector<std::int64_t> values;

    /// Whether this operation issued edge `id` (false for kNoEdge): a NACK
    /// for it is answered with a resend.
    [[nodiscard]] bool has_sent(EdgeId id) const { return id != kNoEdge && sent.test(id); }
    /// Whether edge `id` has arrived (false for kNoEdge).
    [[nodiscard]] bool has_arrived(EdgeId id) const { return id != kNoEdge && arrived.test(id); }
  };

  struct Hooks {
    /// Issues one schedule edge carrying slot.acc.
    std::function<void(Slot&, const Edge&)> send;
    /// The operation just completed at this rank (slot.complete is set).
    std::function<void(Slot&)> complete;
    /// Optional: runs after the slot activates, before step 0's sends.
    std::function<void(Slot&)> pre_start = {};
    /// Optional: runs before a completed slot is rebound to seq + 2.
    std::function<void(Slot&)> recycle = {};
  };

  struct Started {
    std::uint32_t seq;  // the operation's sequence number
    int duplicates;     // buffered arrivals the replay found repeated
  };

  /// `schedule` must outlive the window. Both slots start from `state`.
  GroupWindow(const RankSchedule& schedule, OpKind kind, ReduceOp reduce, Hooks hooks,
              const SlotState& state = {})
      : schedule_(&schedule),
        kind_(kind),
        reduce_(reduce),
        hooks_(std::move(hooks)),
        slots_{Slot(schedule.edge_count()), Slot(schedule.edge_count())} {
    for (Slot& s : slots_) {
      s.state = state;
      if (kind_ != OpKind::kBarrier) s.values.assign(schedule.edge_count(), 0);
    }
  }
  GroupWindow(const GroupWindow&) = delete;
  GroupWindow& operator=(const GroupWindow&) = delete;

  /// Starts this rank's next operation with its contribution; `done` is
  /// kept in the slot for the complete hook.
  Started start(std::int64_t value = 0, DoneFn done = {}) {
    const std::uint32_t seq = next_seq_++;
    Slot& s = bind(seq);
    s.done = std::move(done);
    s.acc = value;
    s.active = true;
    if (hooks_.pre_start) hooks_.pre_start(s);
    // Nothing is recorded yet, so this consumes no step with waits; each
    // buffered arrival lands as it is replayed.
    advance(s);
    int duplicates = 0;
    for (const auto& ea : s.early) {
      if (s.complete) break;
      if (!record(s, ea)) ++duplicates;
    }
    s.early.clear();
    return {seq, duplicates};
  }

  /// Records a message for operation `seq` and says what became of it.
  /// Throws std::logic_error when `seq` would overtake a running operation
  /// two slots back (a peer can race one operation ahead, never two).
  Arrival on_arrival(std::uint32_t seq, int peer, std::uint32_t tag, std::int64_t value = 0) {
    Slot& s = slots_[seq & 1];
    if (s.in_use && s.seq == seq) {
      if (s.complete) return Arrival::kStale;
      const typename Slot::Early a{peer, tag, schedule_->find_edge(peer, tag), value};
      if (!s.active) {
        s.early.push_back(a);
        return Arrival::kEarly;
      }
      return record(s, a) ? Arrival::kAccepted : Arrival::kDuplicate;
    }
    if (s.in_use && seq < s.seq) return Arrival::kStale;
    bind(seq).early.push_back({peer, tag, schedule_->find_edge(peer, tag), value});
    return Arrival::kEarly;
  }

  /// The slot bound to `seq`, or nullptr when none is (never bound, or
  /// already recycled).
  [[nodiscard]] Slot* find(std::uint32_t seq) {
    Slot& s = slots_[seq & 1];
    return s.in_use && s.seq == seq ? &s : nullptr;
  }

  /// Waits of `s`'s current step, arrived or not; empty unless its
  /// operation is running.
  [[nodiscard]] std::span<const Edge> current_waits(const Slot& s) const {
    if (!s.active || s.complete) return {};
    return schedule_->waits(s.step);
  }

  /// Sequence number the next start() will use.
  [[nodiscard]] std::uint32_t next_seq() const { return next_seq_; }

  /// The rank schedule this window walks.
  [[nodiscard]] const RankSchedule& schedule() const { return *schedule_; }

 private:
  /// Records one arrival at a started, incomplete slot; false for a
  /// duplicate. The first arrival of an edge keeps its payload (a
  /// retransmitted twin never overwrites it). An arrival on no schedule
  /// edge is remembered once, so a repeat reads as a duplicate, but it
  /// satisfies no wait.
  bool record(Slot& s, const typename Slot::Early& a) {
    if (a.id == kNoEdge) {
      const std::uint64_t key = RankSchedule::edge_key(a.peer, a.tag);
      if (std::find(s.stray.begin(), s.stray.end(), key) != s.stray.end()) return false;
      s.stray.push_back(key);
      return true;
    }
    if (!s.arrived.set(a.id)) return false;
    if (kind_ != OpKind::kBarrier) s.values[a.id] = a.value;
    advance(s);
    return true;
  }

  /// Issues the sends of each step `s` enters and stops at the first wait
  /// not yet arrived; completes the operation after the last step. A value
  /// kind folds a step's payloads only as the step is consumed: an early
  /// arrival must not leak into the value this rank sends during the same
  /// step.
  void advance(Slot& s) {
    for (; s.step < schedule_->step_count(); ++s.step) {
      const std::span<const Edge> sends = schedule_->sends(s.step);
      const std::span<const Edge> waits = schedule_->waits(s.step);
      for (const Edge& e : sends) {
        if (s.sent.set(e.id)) hooks_.send(s, e);
      }
      for (const Edge& w : waits) {
        if (!s.arrived.test(w.id)) return;
      }
      if (kind_ == OpKind::kBarrier) continue;
      for (const Edge& w : waits) {
        s.acc = combine_value(kind_, reduce_, w.tag, s.acc, s.values[w.id]);
      }
    }
    s.complete = true;
    hooks_.complete(s);
  }

  Slot& bind(std::uint32_t seq) {
    Slot& s = slots_[seq & 1];
    if (s.in_use && s.seq == seq) return s;
    if (s.in_use) {
      if (!s.complete) {
        throw std::logic_error("operation window violated: overtaken by seq+2");
      }
      if (hooks_.recycle) hooks_.recycle(s);
    }
    s.early.clear();
    s.seq = seq;
    s.in_use = true;
    s.active = false;
    s.complete = false;
    s.acc = 0;
    s.done = nullptr;
    s.step = 0;
    s.sent.clear();
    s.arrived.clear();
    s.stray.clear();
    return s;
  }

  const RankSchedule* schedule_;
  OpKind kind_;
  ReduceOp reduce_;
  Hooks hooks_;
  std::uint32_t next_seq_ = 0;
  Slot slots_[2];
};

}  // namespace qmb::coll
