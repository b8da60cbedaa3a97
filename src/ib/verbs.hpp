// IB wire transactions. Plain structs carried inline in net::PacketPayload
// (tag dispatch, no vtables), mirroring the Elan and Myrinet packet
// headers one layer up.
//
// Host-level messages ride the RC transport: each (src, dst) direction is
// one queue pair with its own packet sequence number stream. Requests (RDMA
// writes with immediate data) are PSN-stamped and retransmitted on NAK or
// timeout; ACK/NAK packets are unsequenced, like real AETH frames — a lost
// ACK is recovered by the sender's timer, never acknowledged itself.
//
// Collective-group writes ride an unacknowledged, UC-style path instead:
// no PSN, no ACK, no retransmission timer. A receiver missing one NACKs
// its sender with an IbCollNack (the paper's receiver-driven recovery,
// Sec. 6.3), so a lossless schedule edge costs exactly one packet.
#pragma once

#include <cstdint>

#include "net/packet.hpp"

namespace qmb::ib {

/// One RDMA write with immediate data. When the immediate data carries the
/// collective protocol header it is the building block of the NIC-based
/// barrier on this substrate (the verbs equivalent of the paper's zero-byte
/// event-firing put), sent unacknowledged; otherwise it is a host-level
/// tagged message on the RC queue pair.
struct IbWrite {
  /// What the immediate data means to the receiving HCA's consumer.
  enum class ImmClass : std::uint8_t {
    kGroup,    // collective-group engine event
    kHostMsg,  // host-level tagged message (CQE to the host)
  };

  ImmClass imm_class = ImmClass::kHostMsg;
  std::uint32_t psn = 0;       // sequence number on the (src, dst) QP (kHostMsg)
  std::uint32_t group = 0;     // collective group id
  std::uint32_t seq = 0;       // op sequence in the group
  std::uint32_t tag = 0;       // schedule-edge tag / host message tag
  std::uint32_t src_rank = 0;  // sender's rank (kGroup) or node (kHostMsg)
  std::int64_t value = 0;      // payload word
};

/// Cumulative acknowledgement: every request with psn < `psn` has been
/// accepted. `nak` reports a sequence gap and asks the sender to go back
/// and retransmit from `psn`.
struct IbAck {
  std::uint32_t psn = 0;
  bool nak = false;
};

/// Receiver-driven NACK of one collective write: rank `dst_rank` of
/// `group` is still missing edge `tag` of operation `seq` from the
/// receiving HCA's rank.
struct IbCollNack {
  std::uint32_t group = 0;
  std::uint32_t seq = 0;
  std::uint32_t tag = 0;
  std::uint32_t dst_rank = 0;
};

}  // namespace qmb::ib
