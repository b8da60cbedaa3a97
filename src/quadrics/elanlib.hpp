// Elanlib-style host API (paper Sec. 4.1): tagged puts, their host inbox,
// and elan_hgsync()'s hardware-barrier entry. Host costs (descriptor setup,
// doorbell, event-word polling) run on the node's host CPU resource.
//
// The three Quadrics barrier flavours of Fig. 7 are built on these
// primitives in core/collectives.cpp:
//   * elan_gsync  — the host executor's gather-broadcast tree over put()
//   * elan_hgsync — hardware broadcast + network test-and-set
//   * NIC barrier — chained RDMA descriptors (the NIC's groups(), rung by
//     one host_doorbell)
#pragma once

#include <cstdint>
#include <utility>

#include "core/host_inbox.hpp"
#include "quadrics/fabric.hpp"
#include "quadrics/nic.hpp"
#include "sim/resource.hpp"

namespace qmb::elan {

/// One simulated Quadrics node: host CPU + Elan3 NIC + user-level port.
class ElanNode {
 public:
  ElanNode(sim::Engine& engine, net::Fabric& fabric, const Elan3Config& config,
           int index, sim::Tracer* tracer);
  ElanNode(const ElanNode&) = delete;
  ElanNode& operator=(const ElanNode&) = delete;

  /// Tagged host-level message (elan_put + remote event): the remote host's
  /// receive handler runs after its poll loop sees the event word.
  /// `value` models the first payload word.
  void put(int dst_node, std::uint32_t bytes, std::uint32_t tag, std::int64_t value = 0);

  /// Delivered host messages, after one host_detect poll each.
  [[nodiscard]] coll::HostInbox<coll::HostMsg>& inbox() { return inbox_; }

  /// elan_hgsync() entry: sets the NIC test-and-set flag and waits for the
  /// hardware release. Requires attach_hw_barrier().
  void hgsync_enter(sim::EventCallback done);

  void attach_hw_barrier(HwBarrierController* hw) { hw_ = hw; }

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] sim::Resource& host_cpu() { return host_cpu_; }
  [[nodiscard]] Nic& nic() { return nic_; }
  [[nodiscard]] const Elan3Config& config() const { return cfg_; }

 private:
  int index_;
  const Elan3Config& cfg_;
  sim::Resource host_cpu_;
  Nic nic_;
  coll::HostInbox<coll::HostMsg> inbox_;
  HwBarrierController* hw_ = nullptr;
};

}  // namespace qmb::elan
