// One NIC's collective group engine: the paper's NIC-resident protocol
// (Secs. 3 and 6), written once for the Myrinet, Elan and IB models and for
// the prior work's direct scheme on Myrinet.
//
// Every group a NIC joins gets its own queue, a GroupWindow over the
// group's schedule that arriving messages feed directly. The engine owns
// the group table and every step the substrates share: create_group's
// checks, the enter charge followed by GroupWindow::start, each edge's
// payload size and destination node, arrival lookup and classification,
// completion, and receiver-driven recovery (Sec. 6.3): a NACK timer armed
// before step 0 and cancelled at completion that NACKs each missing wait of
// the current step (arrivals before the host entered already count), and the
// resend of a NACKed edge from the value it carried when first sent (a
// barrier edge carries none, so its resend carries 0).
//
// The NACK timer runs one of two rules. A fixed-period timer (Myrinet)
// NACKs every nack_timeout() from the operation's start. A silence timer
// (IB) NACKs only once nack_timeout() has passed with no accepted arrival
// for the operation; each round that NACKs doubles the wait, up to
// kMaxNackBackoff times the base, and the next accepted arrival resets it
// to the base. A slow star root then keeps its leaves to a few NACKs per
// operation instead of one per period.
//
// The `Nic` type supplies only its costs and its wire, as members the
// engine calls directly, with no std::function or virtual call between
// them. Each edge send and each completion still reaches the engine
// through one of its window's std::function hooks (GroupWindow::Hooks).
// The `Nic` members:
//   kGroupTrace                  trace names for enter, complete, NACK rx
//   kNackOnWire                  whether the wire carries NACKs at all
//   engine(), trace(...)         the simulation engine and the trace hook
//   charge_enter(desc, fn)       doorbell-to-start cost, then fn
//   send_edge(g, seq, e, dst_node, payload_bytes, value, retransmit)
//   charge_complete(desc, c)     result delivery to the host, then c
// and, when kNackOnWire:
//   kNackOnSilence               silence timer with backoff, else fixed period
//   nack_recovery(desc)          whether this group arms the NACK timer
//   nack_timeout(), send_nack(desc, seq, tag, peer_node)
//   skip_retransmit(desc)        the fuzzer's planted recovery bug
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "core/coll_tag.hpp"
#include "core/group_window.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace qmb::coll {

/// One rank's membership in a NIC-resident collective group: what a NIC
/// engine arms at group creation.
struct GroupDesc {
  std::uint32_t group_id = 0;
  int my_rank = -1;
  Placement rank_to_node{};  // rank -> fabric node, shared across the group's NICs
  SharedSchedule schedule{};  // the whole group's schedule, shared across its NICs
  OpKind op_kind = OpKind::kBarrier;
  ReduceOp reduce_op = ReduceOp::kSum;  // allreduce only
  std::uint32_t payload_bytes = 8;      // bytes per contribution word

  /// This rank's part of the shared schedule.
  [[nodiscard]] const RankSchedule& rank_schedule() const {
    return schedule->ranks[static_cast<std::size_t>(my_rank)];
  }
};

/// Counter handles the engine bumps. A substrate registers them under its
/// own metric names; one its wire can never move stays unregistered (a
/// default handle counts nothing).
struct GroupCounters {
  obs::Counter duplicates;      // retransmit already arrived; ignored
  obs::Counter early_buffered;  // arrived before the host entered the op
  obs::Counter stale_dropped;   // for an operation already completed
  obs::Counter nacks_received;
  obs::Counter ops_completed;
};

/// Trace event names a substrate records for the engine's steps.
struct GroupTraceNames {
  std::string_view enter;
  std::string_view complete;
  std::string_view nack_rx = {};
};

/// A completed operation's result on its way to the host; the substrate
/// runs it once the result has landed in host memory.
struct Completion {
  std::function<void(std::int64_t)> done;
  std::int64_t result = 0;
  void operator()() {
    if (done) done(result);
  }
};

template <typename Nic, typename Desc = GroupDesc>
class NicGroupEngine {
 public:
  /// What the engine keeps per operation beyond the shared window.
  struct SlotState {
    sim::EventId nack_timer;
    /// Value each sent edge carried, by edge id, for resends; valid where
    /// the slot's sent bit is set. Sized when the window is built, and
    /// only for value kinds on a wire that carries NACKs (see
    /// keeps_sent_values).
    std::vector<std::int64_t> sent_values;
    /// Silence timer only: the last accepted arrival (or the start, or the
    /// last NACK round), and the silence that must follow it before the
    /// next NACK round.
    sim::SimTime quiet_since;
    sim::SimDuration nack_wait;
  };
  /// Cap on a silence timer's backed-off wait, in multiples of the base.
  static constexpr std::int64_t kMaxNackBackoff = 64;
  using Window = GroupWindow<SlotState>;
  using Slot = typename Window::Slot;
  struct Group {
    Desc desc;
    std::optional<Window> window;  // bound to desc and this Group's address
  };

  /// `counters` is read at every bump, so its handles may be registered
  /// after the engine is built.
  NicGroupEngine(Nic& nic, GroupCounters& counters) : nic_(nic), counters_(counters) {}
  NicGroupEngine(const NicGroupEngine&) = delete;
  NicGroupEngine& operator=(const NicGroupEngine&) = delete;

  /// Registers a process group on this NIC; every member NIC registers it
  /// with the same id and placement. Throws std::invalid_argument on a
  /// duplicate id or a rank its placement or schedule does not cover.
  void create_group(Desc desc) {
    if (groups_.contains(desc.group_id)) {
      throw std::invalid_argument("collective group id already registered");
    }
    if (desc.rank_to_node == nullptr || desc.schedule == nullptr || desc.my_rank < 0 ||
        desc.my_rank >= static_cast<int>(desc.rank_to_node->size()) ||
        desc.my_rank >= static_cast<int>(desc.schedule->ranks.size())) {
      throw std::invalid_argument("collective group: my_rank outside rank_to_node or schedule");
    }
    // Built in place: the window's hooks hold this Group's (table-stable)
    // address.
    Group& g = groups_.emplace(desc.group_id);
    g.desc = std::move(desc);
    Group* gp = &g;
    SlotState state;
    if (keeps_sent_values(g.desc)) state.sent_values.assign(g.desc.rank_schedule().edge_count(), 0);
    g.window.emplace(
        g.desc.rank_schedule(), g.desc.op_kind, g.desc.reduce_op,
        typename Window::Hooks{
            .send =
                [this, gp](Slot& op, const Edge& e) {
                  if (keeps_sent_values(gp->desc)) op.state.sent_values[e.id] = op.acc;
                  send(*gp, op.seq, e, op.acc, false);
                },
            .complete = [this, gp](Slot& op) { complete(*gp, op); },
            .pre_start = [this, gp](Slot& op) { pre_start(*gp, op); },
        },
        state);
  }

  /// The value to resend edge `id` of operation `op` with: what it carried
  /// when first sent. `op` must have sent it.
  [[nodiscard]] static std::int64_t resend_value(const Group& g, const Slot& op, EdgeId id) {
    return keeps_sent_values(g.desc) ? op.state.sent_values[id] : 0;
  }

  /// This NIC's entry for `group`, or nullptr when it never joined it.
  [[nodiscard]] Group* find(std::uint32_t group) const { return groups_.find(group); }

  /// The host entered `group`'s next operation with `value`: the broadcast
  /// payload at the root, a reduction operand, an allgather bit mask, or
  /// nothing for a barrier. `done` receives the result once it has landed
  /// in host memory.
  void collective_enter(std::uint32_t group, std::int64_t value,
                        std::function<void(std::int64_t)> done) {
    Group* gp = groups_.find(group);
    assert(gp != nullptr && "collective_enter on unknown group");
    nic_.charge_enter(gp->desc, [gp, value, done = std::move(done)]() mutable {
      // The accumulator starts from this rank's contribution; arrivals
      // recorded before the start fold on top as their steps are consumed.
      gp->window->start(value, std::move(done));
    });
  }

  /// Puts edge `e` of operation `seq`, carrying `value`, on the wire.
  void send(Group& g, std::uint32_t seq, const Edge& e, std::int64_t value, bool retransmit) {
    // Allgather/alltoall messages carry one contribution per gathered rank;
    // the contribution size is the group's payload_bytes (8 for the classic
    // one-integer collectives). Broadcast ACK edges carry nothing.
    const auto words = static_cast<std::uint32_t>(edge_payload_words(g.desc.op_kind, e.tag, value));
    nic_.send_edge(g, seq, e, g.desc.rank_to_node->at(static_cast<std::size_t>(e.peer)),
                   g.desc.payload_bytes * words, value, retransmit);
  }

  /// The group an arriving message names, or nullptr (counted stale) when
  /// this NIC never joined it.
  Group* arriving(std::uint32_t group) {
    Group* g = groups_.find(group);
    if (g == nullptr) ++counters_.stale_dropped;
    return g;
  }

  /// Records a message from rank `peer` against its group's window and
  /// counts what became of it.
  void arrive(Group& g, std::uint32_t seq, int peer, std::uint32_t tag, std::int64_t value) {
    switch (g.window->on_arrival(seq, peer, tag, value)) {
      case Arrival::kAccepted:
        if constexpr (Nic::kNackOnWire) {
          if constexpr (Nic::kNackOnSilence) heard(g, seq);
        }
        break;
      case Arrival::kDuplicate: ++counters_.duplicates; break;
      case Arrival::kEarly: ++counters_.early_buffered; break;
      case Arrival::kStale: ++counters_.stale_dropped; break;
    }
  }

  /// Rank `peer` is missing edge `tag` of operation `seq` from this rank:
  /// resend it if it went out; a rank that has not sent it yet is behind,
  /// and its normal send covers the NACK.
  void on_nack(std::uint32_t group, std::uint32_t seq, std::uint32_t tag, int peer,
               std::uint64_t flow) {
    Group* gp = groups_.find(group);
    if (gp == nullptr) return;
    Group& g = *gp;
    ++counters_.nacks_received;
    nic_.trace(Nic::kGroupTrace.nack_rx, peer, core::BarrierTag::encode(group, seq, tag),
               static_cast<std::int64_t>(flow));
    const Edge edge{peer, tag, g.window->schedule().find_edge(peer, tag)};
    if (const Slot* slot = g.window->find(seq); slot != nullptr) {
      if (slot->has_sent(edge.id)) {
        if (nic_.skip_retransmit(g.desc)) return;  // the fuzzer's planted bug
        send(g, seq, edge, resend_value(g, *slot, edge.id), true);
      }
      return;
    }
    if (g.desc.op_kind == OpKind::kBarrier && seq < g.window->next_seq()) {
      // The slot was recycled but barrier messages carry no data: the packet
      // is fully reconstructible from the NACK itself. (Value-carrying kinds
      // never need this path — a sender two operations ahead proves the
      // NACKing receiver already completed the operation; see tests.)
      send(g, seq, edge, 0, true);
    }
    // Otherwise the receiver is ahead of us; ignore.
  }

 private:
  /// Whether `desc`'s operations keep each sent edge's value for resends:
  /// value kinds on a wire that carries NACKs. A barrier edge carries no
  /// value, so every barrier resend carries 0.
  [[nodiscard]] static bool keeps_sent_values(const Desc& desc) {
    return Nic::kNackOnWire && desc.op_kind != OpKind::kBarrier;
  }

  void pre_start(Group& g, Slot& op) {
    if constexpr (Nic::kNackOnWire) {
      op.state.quiet_since = nic_.engine().now();
      op.state.nack_wait = nic_.nack_timeout();
      if (nic_.nack_recovery(g.desc)) arm_nack_timer(g, op, op.state.nack_wait);
    }
    nic_.trace(Nic::kGroupTrace.enter, g.desc.group_id, op.seq);
  }

  void complete(Group& g, Slot& op) {
    ++counters_.ops_completed;
    nic_.engine().cancel(op.state.nack_timer);
    nic_.trace(Nic::kGroupTrace.complete, g.desc.group_id, op.seq);
    Completion c{std::move(op.done), op.acc};
    op.done = nullptr;
    nic_.charge_complete(g.desc, std::move(c));
  }

  void arm_nack_timer(Group& g, Slot& op, sim::SimDuration after) {
    Group* gp = &g;
    Slot* opp = &op;
    const std::uint32_t armed_seq = op.seq;
    op.state.nack_timer = nic_.engine().schedule(after, [this, gp, opp, armed_seq] {
      if (!opp->in_use || opp->seq != armed_seq || opp->complete || !opp->active) return;
      nack_timer_fired(*gp, *opp);
    });
  }

  void nack_timer_fired(Group& g, Slot& op) {
    if constexpr (Nic::kNackOnSilence) {
      SlotState& st = op.state;
      const sim::SimTime now = nic_.engine().now();
      if (const sim::SimTime due = st.quiet_since + st.nack_wait; now < due) {
        arm_nack_timer(g, op, due - now);  // heard from since the timer was armed
        return;
      }
      nack_missing(g, op);
      st.quiet_since = now;
      st.nack_wait = std::min(st.nack_wait * 2, nic_.nack_timeout() * kMaxNackBackoff);
      arm_nack_timer(g, op, st.nack_wait);
    } else {
      nack_missing(g, op);
      arm_nack_timer(g, op, nic_.nack_timeout());
    }
  }

  void nack_missing(Group& g, Slot& op) {
    for (const Edge& w : g.window->current_waits(op)) {
      if (op.has_arrived(w.id)) continue;
      nic_.send_nack(g.desc, op.seq, w.tag,
                     g.desc.rank_to_node->at(static_cast<std::size_t>(w.peer)));
    }
  }

  /// Silence timer: an accepted arrival for operation `seq` ends the
  /// silence. A pending fire at the base wait re-checks on its own; a
  /// backed-off wait (only a fired timer backs off) is cut short to the
  /// base.
  void heard(Group& g, std::uint32_t seq) {
    Slot* op = g.window->find(seq);
    if (op == nullptr || op->complete) return;
    SlotState& st = op->state;
    st.quiet_since = nic_.engine().now();
    if (st.nack_wait == nic_.nack_timeout()) return;
    st.nack_wait = nic_.nack_timeout();
    nic_.engine().cancel(st.nack_timer);
    arm_nack_timer(g, *op, st.nack_wait);
  }

  Nic& nic_;
  GroupCounters& counters_;
  GroupTable<Group> groups_;
};

}  // namespace qmb::coll
