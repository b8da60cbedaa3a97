#include "core/cluster.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "net/fat_tree.hpp"
#include "net/topology.hpp"

namespace qmb::core {

MyriCluster::MyriCluster(sim::Engine& engine, const myri::MyrinetConfig& config,
                         int nodes, sim::Tracer* tracer, myri::CollFeatures features,
                         int engine_domains)
    : engine_(engine), config_(config), features_(features) {
  if (nodes < 2) throw std::invalid_argument("cluster needs >= 2 nodes");
  std::unique_ptr<net::Topology> topo;
  if (nodes <= 16) {
    // The paper's testbeds: every node on one Myrinet 2000 crossbar.
    topo = std::make_unique<net::SingleCrossbar>(static_cast<std::size_t>(nodes));
  } else {
    // Larger configurations (Fig. 8 scalability): a Clos of 16-port
    // crossbars, i.e. a 16-ary fat tree.
    topo = std::make_unique<net::FatTree>(
        net::FatTree::fitting(16, static_cast<std::size_t>(nodes)));
  }
  fabric_ = std::make_unique<net::Fabric>(engine_, std::move(topo),
                                          net::FabricParams{config_.link, config_.sw},
                                          tracer);
  fabric_->enable_domains(engine_domains);
  nodes_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    // Node i owns NIC i, so its entire event stream belongs to that domain.
    sim::Engine::DomainScope scope(engine_, fabric_->domain_of(net::NicAddr(i)));
    nodes_.push_back(std::make_unique<myri::MyriNode>(engine_, *fabric_, config_, i, tracer));
  }
}

ElanCluster::ElanCluster(sim::Engine& engine, const elan::Elan3Config& config,
                         int nodes, sim::Tracer* tracer, int engine_domains)
    : engine_(engine), config_(config) {
  if (nodes < 2) throw std::invalid_argument("cluster needs >= 2 nodes");
  fabric_ = elan::make_elan_fabric(engine_, config_, static_cast<std::size_t>(nodes), tracer);
  fabric_->enable_domains(engine_domains);
  nodes_.reserve(static_cast<std::size_t>(nodes));
  std::vector<elan::Nic*> nics;
  for (int i = 0; i < nodes; ++i) {
    sim::Engine::DomainScope scope(engine_, fabric_->domain_of(net::NicAddr(i)));
    nodes_.push_back(std::make_unique<elan::ElanNode>(engine_, *fabric_, config_, i, tracer));
    nics.push_back(&nodes_.back()->nic());
  }
  hw_ = std::make_unique<elan::HwBarrierController>(engine_, *fabric_, std::move(nics), config_);
  for (auto& n : nodes_) n->attach_hw_barrier(hw_.get());
}

IbCluster::IbCluster(sim::Engine& engine, const ib::IbConfig& config, int nodes,
                     sim::Tracer* tracer, bool skip_retransmit, int engine_domains)
    : engine_(engine), config_(config) {
  if (nodes < 2) throw std::invalid_argument("cluster needs >= 2 nodes");
  std::unique_ptr<net::Topology> topo;
  if (static_cast<std::size_t>(nodes) <= config_.radix) {
    topo = std::make_unique<net::SingleCrossbar>(static_cast<std::size_t>(nodes));
  } else {
    topo = std::make_unique<net::FatTree>(
        net::FatTree::fitting(config_.radix, static_cast<std::size_t>(nodes)));
  }
  fabric_ = std::make_unique<net::Fabric>(engine_, std::move(topo),
                                          net::FabricParams{config_.link, config_.sw},
                                          tracer);
  fabric_->enable_domains(engine_domains);
  nodes_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    sim::Engine::DomainScope scope(engine_, fabric_->domain_of(net::NicAddr(i)));
    nodes_.push_back(std::make_unique<ib::IbNode>(engine_, *fabric_, config_, i, tracer,
                                                  skip_retransmit));
  }
}

std::vector<int> identity_placement(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

std::vector<int> resolve_placement(const std::vector<int>& rank_to_node,
                                   int cluster_size) {
  if (rank_to_node.empty()) return identity_placement(cluster_size);
  std::vector<int> owner(static_cast<std::size_t>(cluster_size), -1);
  for (std::size_t r = 0; r < rank_to_node.size(); ++r) {
    const int node = rank_to_node[r];
    if (node < 0 || node >= cluster_size) {
      throw std::invalid_argument("rank_to_node: rank " + std::to_string(r) + " names node " +
                                  std::to_string(node) + ", outside the " +
                                  std::to_string(cluster_size) + "-node cluster");
    }
    int& taken = owner[static_cast<std::size_t>(node)];
    if (taken >= 0) {
      throw std::invalid_argument("rank_to_node: rank " + std::to_string(r) + " names node " +
                                  std::to_string(node) + ", already placed for rank " +
                                  std::to_string(taken));
    }
    taken = static_cast<int>(r);
  }
  return rank_to_node;
}

std::vector<int> random_placement(int n, sim::Rng& rng) {
  const auto perm = rng.permutation(static_cast<std::size_t>(n));
  std::vector<int> v(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) v[i] = static_cast<int>(perm[i]);
  return v;
}

}  // namespace qmb::core
