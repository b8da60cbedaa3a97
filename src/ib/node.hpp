// Verbs-consumer host API: tagged sends over RDMA write-with-immediate and
// the NIC collective doorbell, with host costs (WQE build, doorbell MMIO,
// CQ polling) on the node's host CPU resource — the IB twin of
// elan::ElanNode.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "ib/hca.hpp"
#include "sim/resource.hpp"

namespace qmb::ib {

/// One simulated IB node: host CPU + HCA with RC queue pairs to its peers.
class IbNode {
 public:
  IbNode(sim::Engine& engine, net::Fabric& fabric, const IbConfig& config, int index,
         sim::Tracer* tracer, bool skip_retransmit = false);
  IbNode(const IbNode&) = delete;
  IbNode& operator=(const IbNode&) = delete;

  /// Tagged host-level message: an RDMA write-with-immediate whose CQE the
  /// remote host consumes from its completion queue. `value` models the
  /// first payload word.
  void post(int dst_node, std::uint32_t bytes, std::uint32_t tag, std::int64_t value = 0);

  using ReceiveHandler =
      std::function<void(int src_node, std::uint32_t tag, std::int64_t value)>;

  /// Installs (or replaces) the application's receive handler. Every
  /// consumed CQE pays one host_cq_poll, then runs this handler — or, for
  /// a BarrierTag-encoded tag, its group's handler.
  void set_receive_handler(ReceiveHandler fn);

  /// Registers the handler for host-level collective messages of `group`
  /// (BarrierTag-encoded tags); several groups coexist, demultiplexed on
  /// the tag's group field like GmPort's.
  void add_collective_handler(std::uint32_t group, ReceiveHandler fn);
  void remove_collective_handler(std::uint32_t group);

  /// NIC-resident collective: operand in with the doorbell, result out
  /// with the CQE (0 for a barrier). `done` runs on the host after it
  /// polls the completion.
  void collective_enter(std::uint32_t group, std::int64_t value,
                        std::function<void(std::int64_t)> done);

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] sim::Resource& host_cpu() { return host_cpu_; }
  [[nodiscard]] Hca& hca() { return hca_; }
  [[nodiscard]] const IbConfig& config() const { return cfg_; }

 private:
  void install_dispatcher();

  int index_;
  const IbConfig& cfg_;
  sim::Resource host_cpu_;
  Hca hca_;
  ReceiveHandler app_handler_;
  coll::GroupTable<ReceiveHandler> group_handlers_;  // by BarrierTag group field
  bool dispatcher_installed_ = false;
};

}  // namespace qmb::ib
