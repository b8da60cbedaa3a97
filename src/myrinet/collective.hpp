// The NIC-based collective message passing protocol (paper Sec. 3 and 6) —
// the paper's primary contribution — on the LANai: Myrinet's costs and wire
// for coll::NicGroupEngine, which runs the protocol itself.
//
// Compared to running collectives over the MCP point-to-point path, this
// engine:
//   * keeps a dedicated queue per process group: a triggered barrier message
//     is injected immediately instead of waiting behind per-destination
//     send queues (Sec. 6.1);
//   * transmits from the padded static send packet: no claim/fill/release
//     of pool buffers and no host DMA — the entire payload is one integer
//     already in NIC SRAM (Sec. 6.2);
//   * keeps ONE send record per barrier operation with a bit vector of
//     expected messages (here: a coll::GroupWindow slot's step and its
//     arrived bits, one per schedule edge id) instead of per-packet records
//     (Sec. 6.3);
//   * uses receiver-driven retransmission: no ACKs; a receiver missing an
//     expected message past the timeout NACKs the sender, halving the packet
//     count (Sec. 6.3).
//
// Each of the four simplifications can be disabled independently through
// CollFeatures for the ablation benchmark. Disabling a feature re-adds the
// corresponding firmware cycles (and, for receiver_driven=false, the full
// per-message ACK/timeout machinery and its packets); queue-contention
// effects of dedicated_queue=false beyond the cycle cost are not modeled,
// since the figure benchmarks run barriers in isolation.
//
// DirectEngine is the engine's second hook set on the LANai: the prior
// work's direct scheme, which runs the same NIC-triggered schedule with
// none of the four simplifications.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/nic_group_engine.hpp"
#include "myrinet/mcp.hpp"
#include "myrinet/nic.hpp"
#include "myrinet/packets.hpp"
#include "obs/metrics.hpp"

namespace qmb::myri {

struct CollFeatures {
  bool dedicated_queue = true;
  bool static_packet = true;
  bool receiver_driven = true;
  bool bitvector_record = true;
  /// Deliberate protocol bug behind a debug flag: ignore NACKs that would
  /// retransmit an already-sent message. Exists so the fuzzer's invariants
  /// can be demonstrated to catch (and shrink) a real loss-recovery break;
  /// never enabled by any production preset or ablation sweep.
  bool debug_skip_retransmit = false;
};

/// One rank's membership in a NIC collective group. The ablation switches
/// are Myrinet's own; everything else is the shared descriptor.
struct GroupDesc : coll::GroupDesc {
  CollFeatures features;
};

/// Handles into the engine's MetricRegistry, registered per NIC under
/// "coll.*" names; RunResult reads the cross-node totals off the registry.
struct CollStats : coll::GroupCounters {
  obs::Counter msgs_sent;
  obs::Counter msgs_received;
  obs::Counter nacks_sent;
  obs::Counter retransmissions;  // NACK- or timeout-triggered resends
  obs::Counter acks_sent;        // receiver_driven=false ablation only
};

class CollectiveEngine {
 public:
  using Groups = coll::NicGroupEngine<CollectiveEngine, GroupDesc>;

  explicit CollectiveEngine(Nic& nic);

  /// This NIC's process groups; collective_enter is called at NIC time,
  /// post-PIO.
  [[nodiscard]] Groups& groups() { return groups_; }

  /// Packet dispatcher entry for CollPacket / CollNack / CollAck bodies.
  /// Returns false if the body is not collective-protocol traffic.
  bool on_packet(net::Packet&& p);

  [[nodiscard]] const CollStats& stats() const { return stats_; }

 private:
  using Group = Groups::Group;
  friend Groups;

  // --- coll::NicGroupEngine hooks ---
  static constexpr coll::GroupTraceNames kGroupTrace{
      .enter = "coll_enter", .complete = "coll_complete", .nack_rx = "coll_nack_rx"};
  static constexpr bool kNackOnWire = true;
  // NACK every nack_timeout from the operation's start (the paper's rule).
  static constexpr bool kNackOnSilence = false;
  sim::Engine& engine() { return nic_.engine(); }
  void trace(std::string_view event, std::int64_t a, std::int64_t b, std::int64_t flow = 0) {
    nic_.trace(event, a, b, flow);
  }
  void charge_enter(const GroupDesc& d, sim::EventCallback&& start);
  void send_edge(Group& g, std::uint32_t seq, const coll::Edge& e, int dst_node,
                 std::uint32_t payload, std::int64_t value, bool retransmit);
  void charge_complete(const GroupDesc& d, coll::Completion&& c);
  static bool nack_recovery(const GroupDesc& d) { return d.features.receiver_driven; }
  static bool skip_retransmit(const GroupDesc& d) { return d.features.debug_skip_retransmit; }
  [[nodiscard]] sim::SimDuration nack_timeout() const { return cfg_.nack_timeout; }
  void send_nack(const GroupDesc& d, std::uint32_t seq, std::uint32_t tag, int peer_node);

  // Ablation-only per-message reliability record (receiver_driven = false).
  struct MsgRecord {
    std::uint32_t group = 0;
    std::uint32_t seq = 0;
    coll::Edge edge;
    sim::EventId timer;
  };

  void handle_ack(const CollAck& a);
  void arm_msg_timer(Group* gp, std::uint64_t key, std::uint32_t seq);
  [[nodiscard]] std::uint32_t send_cycles(const CollFeatures& f) const;
  [[nodiscard]] static std::uint64_t msg_key(std::uint32_t group, std::uint32_t seq,
                                             std::uint32_t tag, int peer);

  Nic& nic_;
  const LanaiConfig& cfg_;
  CollStats stats_;
  Groups groups_{*this, stats_};
  std::unordered_map<std::uint64_t, MsgRecord> msg_records_;  // ablation only
};

/// Prior work's direct NIC-based barrier (Buntinas et al.; paper Figs. 5-6):
/// the NIC detects barrier messages and triggers the next ones, but every
/// message is an MCP NIC-sourced send — send token, destination queue,
/// packet claim, per-packet send record, ACK — and the operation starts and
/// completes like a GM send and receive event. It keeps no recovery state
/// of its own (the MCP's ACKs cover loss) and registers no counters.
class DirectEngine {
 public:
  using Groups = coll::NicGroupEngine<DirectEngine>;

  /// Installs itself as `mcp`'s NIC consumer.
  DirectEngine(Nic& nic, Mcp& mcp);

  /// This NIC's direct-scheme groups. Messages name their group in a
  /// BarrierTag, so group ids must fit its group field.
  [[nodiscard]] Groups& groups() { return groups_; }

 private:
  using Group = Groups::Group;
  friend Groups;

  // --- coll::NicGroupEngine hooks ---
  static constexpr coll::GroupTraceNames kGroupTrace{.enter = "direct_enter",
                                                     .complete = "direct_complete"};
  static constexpr bool kNackOnWire = false;
  sim::Engine& engine() { return nic_.engine(); }
  void trace(std::string_view event, std::int64_t a, std::int64_t b, std::int64_t flow = 0) {
    nic_.trace(event, a, b, flow);
  }
  void charge_enter(const coll::GroupDesc&, sim::EventCallback&& start) {
    // The doorbell is translated like a host send event.
    nic_.exec(nic_.lanai().cyc_process_send_event, std::move(start));
  }
  void send_edge(Group& g, std::uint32_t seq, const coll::Edge& e, int dst_node,
                 std::uint32_t payload, std::int64_t value, bool retransmit);
  void charge_complete(const coll::GroupDesc&, coll::Completion&& c);

  /// The MCP's upcall for an arriving NIC-sourced message.
  void on_message(const RecvEvent& ev);

  Nic& nic_;
  Mcp& mcp_;
  coll::GroupCounters counters_;  // none registered
  Groups groups_{*this, counters_};
};

}  // namespace qmb::myri
