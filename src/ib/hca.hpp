// IB HCA model: RC queue pairs, a completion path, and the NIC-resident
// collective group engine, all sharing the card's processing unit (one
// serialized Resource) — the verbs twin of the Elan3 NIC in
// src/quadrics/nic.hpp.
//
// Host-level messages ride the RC transport: one queue pair per (src, dst)
// direction with packet sequence numbers, cumulative ACKs, NAK-on-gap, and
// go-back-N retransmission on a timer that doubles on each consecutive
// expiry and gives up, naming both nodes, after IB's retry_cnt of 7.
//
// Collective traffic drops the ACKs, the paper's fourth simplification:
// each schedule edge is one unacknowledged, UC-style write into the
// group's static slot (no PSN, no per-packet record, no RTO), and a lost
// write is recovered by the group engine's receiver-driven NACK, on a
// silence timer whose base is the RTO. All four protocol simplifications
// (dedicated per-group queue, static buffering, bounded retransmission
// state, NIC-resident progress) are thereby exercised on a fabric where
// loss, duplication and reordering are all recoverable — the
// generalization claim of Sec. 9.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/host_inbox.hpp"
#include "core/nic_group_engine.hpp"
#include "ib/config.hpp"
#include "ib/verbs.hpp"
#include "net/fabric.hpp"
#include "net/peer_table.hpp"
#include "obs/metrics.hpp"
#include "sim/resource.hpp"
#include "sim/trace.hpp"

namespace qmb::ib {

/// Handles into the engine's MetricRegistry, registered per HCA under
/// "ib.*" names; RunResult folds ib.naks_sent / ib.retransmissions into
/// the legacy nacks / retransmissions fingerprint counters and the fuzzer
/// checks ib.ops_completed algebra. The RC transport and the collective
/// path share the counters: `duplicates` counts both RC duplicates and
/// collective writes that arrived twice. The engine's stale and
/// NACK-received counts register as ib.stale_dropped and ib.naks_received:
/// beside ib.naks_sent they show how many collective NACKs reached a peer.
struct HcaStats : coll::GroupCounters {
  obs::Counter writes_posted;    // RC posts and first sends of collective writes
  obs::Counter acks_sent;
  obs::Counter naks_sent;        // RC NAKs and collective NACKs
  obs::Counter retransmissions;  // go-back-N replays and NACKed collective resends
  obs::Counter rto_fires;
  obs::Counter crc_dropped;  // inbound CRC discards (fault-injected corruption)
};

class Hca {
 public:
  /// `skip_retransmit` disables NAK handling, the RTO timer and the resend
  /// of NACKed collective writes — the planted-bug hook
  /// (spec.features.debug_skip_retransmit) the fuzzer uses to prove its
  /// invariants can catch a broken recovery path.
  Hca(sim::Engine& engine, net::Fabric& fabric, const IbConfig& config, int node_index,
      sim::Tracer* tracer, bool skip_retransmit = false);

  /// IB's retry_cnt: RTO expiries a QP answers with a replay before the
  /// next one, still without ACK progress, fails the run.
  static constexpr int kRetryCount = 7;

  // --- RC transport verbs ---

  /// Posts one RC request towards `dst_node` (called at HCA time,
  /// post-doorbell): stamps the QP's next PSN, records the packet for
  /// go-back-N, injects it, and arms the retransmission timer. Throws
  /// std::runtime_error, from the timer, once the retry count is spent.
  void post_write(int dst_node, IbWrite body, std::uint32_t payload_bytes);

  /// Handler for write-with-immediate requests whose immediate data is a
  /// host-level message; runs at HCA time after the CQE DMA (host poll
  /// cost is the caller's).
  using HostMsgHandler = std::function<void(const coll::HostMsg&)>;
  void set_host_msg_handler(HostMsgHandler h) { host_msg_handler_ = std::move(h); }

  // --- NIC-resident collective group engine (paper Secs. 5-7 on verbs) ---

  using Groups = coll::NicGroupEngine<Hca>;
  /// The collective groups: each rank's schedule walks entirely on the HCA,
  /// advanced by arriving write-with-immediate events; an operation's
  /// operand rides the immediate data of the group's unacknowledged RDMA
  /// writes.
  [[nodiscard]] Groups& groups() { return groups_; }

  [[nodiscard]] net::NicAddr addr() const { return addr_; }
  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] const IbConfig& config() const { return *config_; }
  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] sim::Resource& unit() { return unit_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const HcaStats& stats() const { return stats_; }

  void trace(std::string_view event, std::int64_t a = 0, std::int64_t b = 0,
             std::int64_t flow = 0);

 private:
  // --- transport state ---
  struct PendingWrite {
    IbWrite body;
    std::uint32_t wire_bytes = 0;
  };
  /// Unacked requests in PSN order: a vector read from a moving head,
  /// emptied in place once drained, so a steady QP reuses one buffer.
  class SendQueue {
   public:
    [[nodiscard]] bool empty() const { return head_ == items_.size(); }
    [[nodiscard]] const PendingWrite& front() const { return items_[head_]; }
    void push_back(const PendingWrite& w) { items_.push_back(w); }
    void pop_front() {
      if (++head_ == items_.size()) {
        items_.clear();
        head_ = 0;
      } else if (head_ >= 64 && 2 * head_ >= items_.size()) {
        // Never drained: drop the consumed prefix so the buffer stays bounded.
        items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    [[nodiscard]] auto begin() const {
      return items_.begin() + static_cast<std::ptrdiff_t>(head_);
    }
    [[nodiscard]] auto end() const { return items_.end(); }

   private:
    std::vector<PendingWrite> items_;
    std::size_t head_ = 0;
  };
  struct SendQp {
    std::uint32_t next_psn = 0;
    SendQueue unacked;  // PSN order; front is the oldest
    sim::EventId rto_timer;
    bool timer_armed = false;
    int retries = 0;  // consecutive RTO expiries since the last ACK progress
  };
  struct RecvQp {
    std::uint32_t expected_psn = 0;
    bool nak_outstanding = false;  // one NAK per gap until progress resumes
  };
  /// Both directions of the RC connection to one peer.
  struct Peer {
    SendQp send;
    RecvQp recv;
  };

  friend Groups;

  // --- coll::NicGroupEngine hooks: unacknowledged writes with immediate
  // data, recovered by receiver-driven NACK on a silence timer whose base
  // is the RC RTO ---
  static constexpr coll::GroupTraceNames kGroupTrace{
      .enter = "op_enter", .complete = "op_complete", .nack_rx = "coll_nack_rx"};
  static constexpr bool kNackOnWire = true;
  static constexpr bool kNackOnSilence = true;
  void charge_enter(const coll::GroupDesc&, sim::EventCallback&& start) {
    // The doorbell dispatch shares the WQE-processing unit charge.
    unit_.exec(config_->qp_process, std::move(start));
  }
  void send_edge(Groups::Group& g, std::uint32_t seq, const coll::Edge& e, int dst_node,
                 std::uint32_t payload, std::int64_t value, bool retransmit);
  void charge_complete(const coll::GroupDesc&, coll::Completion&& c) {
    // The completion CQE (immediate data + result) DMAs to host memory.
    unit_.exec(config_->cq_dma, std::move(c));
  }
  static bool nack_recovery(const coll::GroupDesc&) { return true; }
  [[nodiscard]] bool skip_retransmit(const coll::GroupDesc&) const { return skip_retransmit_; }
  [[nodiscard]] sim::SimDuration nack_timeout() const { return config_->rto; }
  void send_nack(const coll::GroupDesc& d, std::uint32_t seq, std::uint32_t tag, int peer_node);

  void on_packet(net::Packet&& p);
  void accept_request(int src_node, const IbWrite& w);
  void send_ack(int dst_node, std::uint32_t psn, bool nak);
  void handle_ack(int peer, const IbAck& a);
  // `slot` is the peer's entry in peers_, so timers skip the lookup.
  void arm_rto(int peer, std::uint32_t slot);
  void retransmit_window(int peer, std::uint32_t slot);

  sim::Engine* engine_;
  net::Fabric* fabric_;
  const IbConfig* config_;
  int node_;
  sim::Tracer* tracer_;
  std::uint16_t trace_comp_ = 0;  // interned "ib"
  sim::Resource unit_;
  net::NicAddr addr_;
  HcaStats stats_;
  bool skip_retransmit_ = false;
  HostMsgHandler host_msg_handler_;

  net::PeerTable<Peer> peers_;
  Groups groups_{*this, stats_};
};

}  // namespace qmb::ib
