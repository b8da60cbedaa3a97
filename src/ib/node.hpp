// Verbs-consumer host API: tagged sends over RDMA write-with-immediate and
// their host inbox, with host costs (WQE build, doorbell MMIO, CQ polling)
// on the node's host CPU resource — the IB twin of elan::ElanNode.
#pragma once

#include <cstdint>
#include <utility>

#include "core/host_inbox.hpp"
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

  /// Consumed CQEs of host messages, after one host_cq_poll each.
  [[nodiscard]] coll::HostInbox<coll::HostMsg>& inbox() { return inbox_; }

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] sim::Resource& host_cpu() { return host_cpu_; }
  [[nodiscard]] Hca& hca() { return hca_; }
  [[nodiscard]] const IbConfig& config() const { return cfg_; }

 private:
  int index_;
  const IbConfig& cfg_;
  sim::Resource host_cpu_;
  Hca hca_;
  coll::HostInbox<coll::HostMsg> inbox_;
};

}  // namespace qmb::ib
