// Elan wire transactions. Plain structs carried inline in
// net::PacketPayload (tag dispatch, no vtables).
#pragma once

#include <cstdint>

#include "net/packet.hpp"

namespace qmb::elan {

/// One RDMA put. A zero-byte put that only fires a remote event is the
/// building block of the chained-RDMA barrier (paper Sec. 7).
struct ElanRdma {
  enum class EventClass : std::uint8_t {
    kBarrier,   // chained-barrier remote event
    kHostMsg,   // host-level tagged put (elan_put)
  };
  EventClass ev_class = EventClass::kHostMsg;
  std::uint32_t group = 0;
  std::uint32_t seq = 0;
  std::uint32_t tag = 0;
  std::uint32_t src_rank = 0;
  std::int64_t value = 0;
};

/// Hardware-barrier probe: "is your barrier flag for `round` set?". Sent as
/// a hardware broadcast; replies combine in the switches (modeled
/// analytically by HwBarrierController).
struct TsetProbe {
  std::uint64_t round = 0;
};

/// Hardware-barrier release, broadcast after a successful probe.
struct TsetGo {
  std::uint64_t round = 0;
};

}  // namespace qmb::elan
