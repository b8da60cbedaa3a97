// Elanlib-style host API (paper Sec. 4.1): tagged puts, the chained-RDMA
// NIC collective doorbell, and elan_hgsync()'s hardware-barrier entry. Host
// costs (descriptor setup, doorbell, event-word polling) run on the node's
// host CPU resource.
//
// The three Quadrics barrier flavours of Fig. 7 are built on these
// primitives in core/collectives.cpp:
//   * elan_gsync  — the host executor's gather-broadcast tree over put()
//   * elan_hgsync — hardware broadcast + network test-and-set
//   * NIC barrier — chained RDMA descriptors (collective_enter)
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

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

  using ReceiveHandler =
      std::function<void(int src_node, std::uint32_t tag, std::int64_t value)>;

  /// Installs (or replaces) the application's receive handler. Every
  /// delivered host message pays one host_detect poll, then runs this
  /// handler — or, for a BarrierTag-encoded tag, its group's handler.
  void set_receive_handler(ReceiveHandler fn);

  /// Registers the handler for host-level collective messages of `group`
  /// (BarrierTag-encoded tags); several groups coexist, demultiplexed on
  /// the tag's group field like GmPort's.
  void add_collective_handler(std::uint32_t group, ReceiveHandler fn);
  void remove_collective_handler(std::uint32_t group);

  /// Chained-RDMA NIC collective: operand in with the doorbell, result out
  /// with the final local event (0 for a barrier). `done` runs on the host
  /// after it polls the completion word.
  void collective_enter(std::uint32_t group, std::int64_t value,
                        std::function<void(std::int64_t)> done);

  /// elan_hgsync() entry: sets the NIC test-and-set flag and waits for the
  /// hardware release. Requires attach_hw_barrier().
  void hgsync_enter(sim::EventCallback done);

  void attach_hw_barrier(HwBarrierController* hw) { hw_ = hw; }

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] sim::Resource& host_cpu() { return host_cpu_; }
  [[nodiscard]] Nic& nic() { return nic_; }
  [[nodiscard]] const Elan3Config& config() const { return cfg_; }

 private:
  void install_dispatcher();

  int index_;
  const Elan3Config& cfg_;
  sim::Resource host_cpu_;
  Nic nic_;
  HwBarrierController* hw_ = nullptr;
  ReceiveHandler app_handler_;
  coll::GroupTable<ReceiveHandler> group_handlers_;  // by BarrierTag group field
  bool dispatcher_installed_ = false;
};

}  // namespace qmb::elan
