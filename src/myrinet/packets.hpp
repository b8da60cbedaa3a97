// Myrinet wire packet bodies.
//
// The MCP point-to-point path uses DATA/ACK with per-packet sequence numbers
// (GM semantics: unexpected sequence numbers are dropped and recovered by
// sender timeout). The collective protocol uses BARRIER/COLL-NACK carried in
// the padded static packet: no sequence numbers, no ACKs — reliability is
// receiver-driven (Sec. 3 and 6.3 of the paper).
//
// Bodies are plain structs carried inline in net::PacketPayload (tag
// dispatch, no vtables); every one must fit PacketPayload::kInlineCapacity
// so injection and retransmit capture stay allocation-free.
#pragma once

#include <cstdint>

#include "net/packet.hpp"

namespace qmb::myri {

/// One MTU-or-less fragment of a point-to-point message. The 8-byte fields
/// lead so the struct packs to exactly 40 bytes — the payload inline limit.
struct DataPacket {
  std::uint64_t msg_id = 0;       // sender-local message id
  std::int64_t inline_value = 0;  // payload for NIC-sourced small messages
  std::uint32_t seqno = 0;        // per (src,dst) channel sequence number
  std::uint32_t offset = 0;       // byte offset of this fragment
  std::uint32_t payload_bytes = 0;
  std::uint32_t total_bytes = 0;  // full message length
  std::uint32_t tag = 0;          // user tag, delivered to the host
  bool nic_sourced = false;       // true for NIC-generated (direct-scheme) messages
};
static_assert(sizeof(DataPacket) <= net::PacketPayload::kInlineCapacity);

/// Acknowledgment for exactly one DATA sequence number.
struct AckPacket {
  std::uint32_t seqno = 0;
};

/// Collective-protocol message: everything a barrier needs is one integer
/// (the barrier sequence) plus addressing (group, schedule tag, source rank).
struct CollPacket {
  std::uint32_t group = 0;
  std::uint32_t barrier_seq = 0;  // collective operation sequence within the group
  std::uint32_t tag = 0;          // schedule-edge tag (round index)
  std::uint32_t src_rank = 0;
  std::int64_t value = 0;         // reduction operand / bcast payload handle
};
static_assert(sizeof(CollPacket) <= net::PacketPayload::kInlineCapacity);

/// Receiver-driven retransmission request: "I am missing your collective
/// message with this tag for this operation".
struct CollNack {
  std::uint32_t group = 0;
  std::uint32_t barrier_seq = 0;
  std::uint32_t tag = 0;
  std::uint32_t dst_rank = 0;  // rank of the NACK sender (who is missing it)
};

/// Per-message acknowledgment for the collective path. Only used by the
/// receiver_driven=false ablation — the paper's protocol sends no collective
/// ACKs at all (Sec. 6.3).
struct CollAck {
  std::uint32_t group = 0;
  std::uint32_t barrier_seq = 0;
  std::uint32_t tag = 0;
  std::uint32_t acker_rank = 0;  // rank acknowledging receipt
};

/// Wire sizes (bytes): header plus the minimal payload of each kind.
[[nodiscard]] constexpr std::uint32_t ack_wire_bytes(std::uint32_t header) { return header; }
[[nodiscard]] constexpr std::uint32_t coll_wire_bytes(std::uint32_t header) { return header + 8; }

}  // namespace qmb::myri
