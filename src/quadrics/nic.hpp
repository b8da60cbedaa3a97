// Elan3 NIC model: an RDMA engine plus an event unit sharing the card's
// microcode processor (one serialized Resource), attached to the quaternary
// fat-tree fabric.
//
// The chained-RDMA barrier executes here: a group's chained descriptor list
// is armed from user level once; arriving remote events advance the chain
// without any host involvement until the final local event (paper Sec. 7).
#pragma once

#include <cstdint>
#include <functional>

#include "core/host_inbox.hpp"
#include "core/nic_group_engine.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "quadrics/config.hpp"
#include "quadrics/packets.hpp"
#include "sim/resource.hpp"
#include "sim/trace.hpp"

namespace qmb::elan {

/// Handles into the engine's MetricRegistry, registered per NIC under
/// "elan.*" names; RunResult reads the cross-node totals off the registry.
struct ElanStats : coll::GroupCounters {
  obs::Counter rdma_issued;
  obs::Counter events_fired;
  obs::Counter host_notifies;
  obs::Counter crc_dropped;  // inbound CRC discards (fault-injected corruption)
};

class Nic {
 public:
  Nic(sim::Engine& engine, net::Fabric& fabric, const Elan3Config& config,
      int node_index, sim::Tracer* tracer);

  // --- raw Elan3 primitives ---

  /// Issues an RDMA put of `bytes` towards `dst_node`, firing the remote
  /// event described by `body`. Called at NIC time (post-doorbell).
  void rdma_put(int dst_node, std::uint32_t bytes, ElanRdma body);

  /// Handler for host-level tagged puts landing on this NIC; invoked at NIC
  /// time after the event word reaches host memory (host poll cost is the
  /// caller's).
  using HostMsgHandler = std::function<void(const coll::HostMsg&)>;
  void set_host_msg_handler(HostMsgHandler h) { host_msg_handler_ = std::move(h); }

  // --- chained-RDMA collective unit ---

  using Groups = coll::NicGroupEngine<Nic>;
  /// The collective unit: create_group builds the chained descriptor list
  /// for a rank's schedule; collective_enter is the host's trigger of the
  /// chain's first descriptor (at NIC time), its operand riding the RDMA
  /// puts exactly as a barrier's notification does (paper Sec. 7 — a put
  /// may carry data as well as fire an event).
  [[nodiscard]] Groups& groups() { return groups_; }

  // --- hardware-barrier hooks (used by HwBarrierController) ---

  /// Sets/clears the test-and-set flag the hardware probe examines.
  void set_tset_flag(std::uint64_t round) { tset_round_ = round; }
  [[nodiscard]] bool tset_flag_at_least(std::uint64_t round) const {
    return tset_round_ >= round;
  }

  using ProbeHandler = std::function<void(const TsetProbe&)>;
  using GoHandler = std::function<void(const TsetGo&)>;
  void set_probe_handler(ProbeHandler h) { probe_handler_ = std::move(h); }
  void set_go_handler(GoHandler h) { go_handler_ = std::move(h); }

  [[nodiscard]] net::NicAddr addr() const { return addr_; }
  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] const Elan3Config& config() const { return *config_; }
  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] sim::Resource& unit() { return unit_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const ElanStats& stats() const { return stats_; }

  /// Records a protocol trace event; `flow` (when non-zero) correlates it
  /// with the fabric packet carrying this RDMA/event-chain step.
  void trace(std::string_view event, std::int64_t a = 0, std::int64_t b = 0,
             std::int64_t flow = 0);

 private:
  friend Groups;

  // --- coll::NicGroupEngine hooks: chained RDMA puts; the hardware-reliable
  // network has no NACK on the wire ---
  static constexpr coll::GroupTraceNames kGroupTrace{.enter = "barrier_enter",
                                                     .complete = "barrier_complete"};
  static constexpr bool kNackOnWire = false;
  void charge_enter(const coll::GroupDesc&, sim::EventCallback&& start) {
    unit_.exec(config_->command_process, std::move(start));
  }
  void send_edge(Groups::Group& g, std::uint32_t seq, const coll::Edge& e, int dst_node,
                 std::uint32_t payload, std::int64_t value, bool retransmit);
  void charge_complete(const coll::GroupDesc&, coll::Completion&& c) {
    // The final chained descriptor fires a *local* event whose word DMAs to
    // host memory, carrying the operation's result.
    unit_.exec(config_->host_notify_dma, std::move(c));
  }

  void on_packet(net::Packet&& p);

  sim::Engine* engine_;
  net::Fabric* fabric_;
  const Elan3Config* config_;
  int node_;
  sim::Tracer* tracer_;
  std::uint16_t trace_comp_ = 0;  // interned "elan"
  sim::Resource unit_;
  net::NicAddr addr_;
  ElanStats stats_;
  HostMsgHandler host_msg_handler_;
  ProbeHandler probe_handler_;
  GoHandler go_handler_;
  std::uint64_t tset_round_ = 0;
  Groups groups_{*this, stats_};
};

}  // namespace qmb::elan
