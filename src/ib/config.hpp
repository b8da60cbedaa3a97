// Cost-model preset for an InfiniBand-style RDMA verbs fabric: ConnectX-era
// HCAs with reliable-connection (RC) queue pairs on a fat tree of IB
// switches — the generalization target of the paper's NIC-based collective
// protocol ("Design and Implementation of MPICH2 over InfiniBand with RDMA
// Support", same lineage; see PAPERS.md).
//
// Unlike QsNet, the IB wire is NOT assumed reliable end-to-end at the layer
// we model. Host messages recover losses on the RC transport, with per-QP
// packet sequence numbers, cumulative ACKs, NAK-on-gap, and a go-back-N
// retransmission timer; collective writes go unacknowledged and recover by
// receiver-driven NACK. That machinery is what lets the fault injector's
// drop/corrupt/duplicate/reorder rules run against this substrate, which
// neither Quadrics model supports.
#pragma once

#include "net/link.hpp"
#include "net/switch_node.hpp"
#include "sim/time.hpp"

namespace qmb::ib {

struct IbConfig {
  // --- host side (verbs consumer) ---
  sim::SimDuration host_setup = sim::nanoseconds(300);      // per-op bookkeeping before the first WQE
  sim::SimDuration host_wqe_build = sim::nanoseconds(350);  // build a WQE in the send queue
  sim::SimDuration host_doorbell = sim::nanoseconds(250);   // MMIO ring of the QP doorbell
  sim::SimDuration host_cq_poll = sim::nanoseconds(400);    // poll + consume one CQE

  // --- HCA units ---
  sim::SimDuration qp_process = sim::nanoseconds(300);   // WQE fetch, packet build, PSN stamp
  sim::SimDuration rx_process = sim::nanoseconds(250);   // inbound PSN check + RDMA write placement
  sim::SimDuration cq_dma = sim::nanoseconds(300);       // CQE (immediate data) DMA to host memory
  sim::SimDuration ack_process = sim::nanoseconds(100);  // ACK/NAK generation or retirement

  // --- reliability ---
  /// Go-back-N retransmission timeout, doubled on each consecutive expiry.
  /// Far above the unloaded RTT so a timer fire means real loss, not
  /// congestion; NAK-on-gap recovers the common case much sooner. It is
  /// also the base of the collective NACK timer: the same "silence means
  /// loss" bound, applied by the receiver.
  sim::SimDuration rto = sim::microseconds(50);

  // --- fabric ---
  std::size_t radix = 16;  // switch port count (crossbar below, fat tree above)
  net::LinkParams link{sim::nanoseconds(120), 1.0e9};  // 4X SDR-ish: ~1 GB/s data rate
  net::SwitchParams sw{sim::nanoseconds(110)};

  std::uint32_t header_bytes = 30;  // LRH + BTH + RETH
  std::uint32_t ack_bytes = 30;     // LRH + BTH + AETH
};

/// The default simulated IB cluster.
[[nodiscard]] inline IbConfig ib_cluster() { return IbConfig{}; }

}  // namespace qmb::ib
