// Cluster builders — the simulated machines every collective runs on (see
// core/collectives.hpp for the operations and the run driver).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ib/node.hpp"
#include "myrinet/gm.hpp"
#include "quadrics/elanlib.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace qmb::core {

/// A simulated Myrinet cluster: N nodes on a crossbar (<= 16 nodes, as in
/// the paper's testbeds) or a 16-ary Clos fat tree (larger, for the Fig. 8
/// scalability runs). `features` are the NIC collective protocol's ablation
/// switches; they apply to barrier groups only.
class MyriCluster {
 public:
  /// `engine_domains` > 1 asks the fabric for a conservative-PDES cut of
  /// roughly that many domains (see Fabric::enable_domains); each node is
  /// then built inside its domain so all of its events stay there.
  MyriCluster(sim::Engine& engine, const myri::MyrinetConfig& config, int nodes,
              sim::Tracer* tracer = nullptr, myri::CollFeatures features = {},
              int engine_domains = 1);

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] myri::MyriNode& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const myri::MyrinetConfig& config() const { return config_; }
  [[nodiscard]] const myri::CollFeatures& features() const { return features_; }

  [[nodiscard]] std::uint32_t next_group_id() { return next_group_id_++; }

 private:
  sim::Engine& engine_;
  myri::MyrinetConfig config_;
  myri::CollFeatures features_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<myri::MyriNode>> nodes_;
  std::uint32_t next_group_id_ = 1;
};

/// A simulated Quadrics cluster on a quaternary fat tree.
class ElanCluster {
 public:
  ElanCluster(sim::Engine& engine, const elan::Elan3Config& config, int nodes,
              sim::Tracer* tracer = nullptr, int engine_domains = 1);

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] elan::ElanNode& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] elan::HwBarrierController& hw_barrier() { return *hw_; }
  [[nodiscard]] const elan::Elan3Config& config() const { return config_; }

  [[nodiscard]] std::uint32_t next_group_id() { return next_group_id_++; }

 private:
  sim::Engine& engine_;
  elan::Elan3Config config_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<elan::ElanNode>> nodes_;
  std::unique_ptr<elan::HwBarrierController> hw_;
  std::uint32_t next_group_id_ = 1;
};

/// A simulated InfiniBand cluster: N nodes on one crossbar switch (small
/// fabrics) or a fat tree of `radix`-port switches, with RC queue pairs
/// between every node pair. `skip_retransmit` threads the fuzzer's
/// planted-bug flag into every HCA.
class IbCluster {
 public:
  IbCluster(sim::Engine& engine, const ib::IbConfig& config, int nodes,
            sim::Tracer* tracer = nullptr, bool skip_retransmit = false,
            int engine_domains = 1);

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] ib::IbNode& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const ib::IbConfig& config() const { return config_; }

  [[nodiscard]] std::uint32_t next_group_id() { return next_group_id_++; }

 private:
  sim::Engine& engine_;
  ib::IbConfig config_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<ib::IbNode>> nodes_;
  std::uint32_t next_group_id_ = 1;
};

/// Identity placement helper.
[[nodiscard]] std::vector<int> identity_placement(int n);

/// A collective's rank -> node map on a `cluster_size`-node cluster: the
/// identity when `rank_to_node` is empty, else `rank_to_node` itself after
/// checking that it names each node at most once and only nodes inside the
/// cluster. Throws std::invalid_argument naming the offending rank and node.
[[nodiscard]] std::vector<int> resolve_placement(const std::vector<int>& rank_to_node,
                                                 int cluster_size);
/// Random placement drawn from `rng` (paper Sec. 8.1: "random permutation
/// of the nodes").
[[nodiscard]] std::vector<int> random_placement(int n, sim::Rng& rng);

}  // namespace qmb::core
