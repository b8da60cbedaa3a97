// The Myrinet Control Program's point-to-point path (paper Sec. 4.2),
// reimplemented as simulator firmware:
//
//  * host send events become send tokens, appended to a per-destination
//    queue; the send engine serves destination queues round-robin;
//  * each fragment claims a send buffer from a finite pool, DMAs host data
//    across PCI, and is injected with a per-channel sequence number;
//  * a send record per packet tracks the ACK timeout; receivers drop
//    out-of-sequence packets and ACK in-sequence ones; timeouts retransmit;
//  * received data DMAs into preposted host receive buffers and a receive
//    event notifies the host.
//
// NIC-sourced sends ride this same path minus the host DMA. They carry the
// prior work's direct scheme (myri::DirectEngine in collective.hpp, one of
// coll::NicGroupEngine's hook sets): its messages still pay queuing,
// packetization, per-packet bookkeeping and ACK-based error control, which
// is exactly the redundancy the collective protocol removes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "myrinet/nic.hpp"
#include "myrinet/packets.hpp"
#include "net/peer_table.hpp"
#include "obs/metrics.hpp"

namespace qmb::myri {

/// Receive event surfaced to the host after the message is assembled.
struct RecvEvent {
  int src_node = -1;
  std::uint32_t tag = 0;
  std::uint32_t bytes = 0;
  std::int64_t value = 0;  // first payload word
};

/// Handles into the engine's MetricRegistry, registered per NIC under
/// "mcp.*" names; RunResult reads the cross-node totals off the registry.
struct McpStats {
  obs::Counter data_packets_sent;
  obs::Counter acks_sent;
  obs::Counter retransmissions;
  obs::Counter drops_bad_seq;      // out-of-order, dropped silently
  obs::Counter dup_acked;          // duplicate in-order packets re-ACKed
  obs::Counter drops_no_token;     // no preposted receive buffer
  obs::Counter tokens_completed;
  obs::Counter buffer_stalls;      // send engine waited for a packet buffer
};

class Mcp {
 public:
  explicit Mcp(Nic& nic);

  // --- host-facing entry points (call at NIC time, i.e. after the PIO
  //     doorbell has crossed the bus; GmPort owns the host-side costs) ---

  /// Send `bytes` of host memory to `dst_node` with `tag`. `on_complete`
  /// (may be empty) runs at NIC time when every fragment is acknowledged.
  /// `inline_value` models the first payload word (delivered in RecvEvent).
  void host_send_event(int dst_node, std::uint32_t bytes, std::uint32_t tag,
                       sim::EventCallback on_complete, std::int64_t inline_value = 0);

  /// Preposts `n` host receive buffers.
  void provide_receive_buffers(int n) { recv_tokens_ += n; }

  /// Installs the host receive upcall, invoked at NIC time when the receive
  /// event lands in host memory (GmPort layers host poll cost on top).
  void set_host_receiver(std::function<void(const RecvEvent&)> fn) {
    host_receiver_ = std::move(fn);
  }

  // --- NIC-internal entry points (the direct scheme) ---

  /// Enqueues a NIC-sourced small message (payload already on the NIC).
  /// Goes through the full token/queue/packet/ACK machinery but skips the
  /// host DMA on both ends; delivered to the peer's nic consumer.
  void nic_send(int dst_node, std::uint32_t tag, std::int64_t value);

  /// Consumer for NIC-sourced messages arriving at this NIC (the node's
  /// DirectEngine installs itself).
  void set_nic_consumer(std::function<void(const RecvEvent&)> fn) {
    nic_consumer_ = std::move(fn);
  }

  /// Packet dispatcher entry: handles DataPacket and AckPacket bodies.
  /// Returns false if the body type is not MCP's.
  bool on_packet(net::Packet&& p);

  [[nodiscard]] const McpStats& stats() const { return stats_; }
  [[nodiscard]] int free_send_buffers() const { return pool_available_; }
  [[nodiscard]] int recv_tokens() const { return recv_tokens_; }

 private:
  struct SendToken {
    int dst = -1;
    std::uint64_t msg_id = 0;
    std::uint32_t total_bytes = 0;
    std::uint32_t injected_bytes = 0;
    std::uint32_t tag = 0;
    bool nic_sourced = false;
    std::int64_t inline_value = 0;
    sim::EventCallback on_complete;
    std::uint32_t frags_unacked = 0;
    bool fully_injected = false;
  };

  struct SendRecord {
    net::NicAddr dst;
    std::uint32_t seqno = 0;
    std::uint32_t wire_bytes = 0;
    DataPacket body;  // retransmission source, stored by value
    sim::EventId timer;
    std::uint64_t token_msg_id = 0;
    int token_dst = -1;
  };

  void enqueue_token(SendToken&& tok);
  void run_send_engine();
  void transmit_front_fragment();
  void finish_fragment(std::uint32_t frag_bytes);
  void arm_retransmit(std::uint64_t record_key);
  void handle_data(const net::Packet& p, const DataPacket& d);
  void handle_ack(const AckPacket& a, net::NicAddr from);
  void send_ack(net::NicAddr to, std::uint32_t seqno);
  void complete_token_if_done(int dst, std::uint64_t msg_id);

  /// Sequence state of the channel pair to one peer.
  struct Channel {
    std::uint32_t next_tx_seq = 0;
    std::uint32_t expected_rx_seq = 0;
  };

  [[nodiscard]] static std::uint64_t record_key(net::NicAddr dst, std::uint32_t seqno) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst.value())) << 32) | seqno;
  }

  Nic& nic_;
  const LanaiConfig& cfg_;
  McpStats stats_;

  // send side
  std::map<int, std::deque<SendToken>> dest_queues_;  // keyed by dst node
  std::deque<int> rr_ring_;                           // destinations with work
  bool engine_running_ = false;
  bool waiting_for_buffer_ = false;
  int pool_available_;
  std::uint64_t next_msg_id_ = 1;
  net::PeerTable<Channel> channels_;
  // Ordered by record_key = (dst, seqno) so timeout recovery can walk one
  // destination's unACKed records in sequence order (go-back-N).
  std::map<std::uint64_t, SendRecord> send_records_;
  // Tokens whose fragments are all injected but not yet all ACKed, keyed by
  // (dst, msg_id).
  std::map<std::pair<int, std::uint64_t>, SendToken> inflight_tokens_;

  // receive side
  int recv_tokens_ = 0;
  struct Assembly {
    std::uint32_t received = 0;
    std::uint32_t total = 0;
  };
  std::map<std::pair<int, std::uint64_t>, Assembly> assemblies_;  // (src, msg_id)
  std::function<void(const RecvEvent&)> host_receiver_;
  std::function<void(const RecvEvent&)> nic_consumer_;
};

}  // namespace qmb::myri
