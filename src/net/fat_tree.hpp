// k-ary n-tree (fat tree) topology — the shape of Quadrics QsNet (quaternary
// fat tree of Elite switches) and of large Myrinet Clos networks.
//
// Stage-trunk model: at every level boundary the tree has full bisection
// (a subtree of k^j nodes owns k^j parallel up-links), which matches a k-ary
// n-tree exactly. Rather than instantiating each physical crossbar chip, one
// SwitchNode per (level, subtree) aggregates the chips crossed at that level
// — a route still pays exactly one routing delay per physical switch level
// crossed and one link occupancy per stage, which is what the latency and
// contention model needs. Trunk-link selection is a deterministic hash of
// (src, dst), emulating Quadrics/Myrinet dispersive source routing.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"

namespace qmb::net {

class FatTree final : public Topology {
 public:
  /// A tree with `levels` switch levels of arity `arity`; supports
  /// arity^levels node slots. `nics` may be less than the slot count (the
  /// paper's 8-node jobs on an Elite-16 use half the slots). Throws
  /// std::invalid_argument for a tree deeper than RouteScratch holds
  /// (2 * levels > RouteScratch::kMaxHops).
  FatTree(std::size_t arity, std::size_t levels, std::size_t nics);

  /// Smallest tree that fits `nics` nodes at the given arity.
  static FatTree fitting(std::size_t arity, std::size_t nics);

  [[nodiscard]] std::size_t max_nics() const override { return nics_; }
  [[nodiscard]] std::size_t num_links() const override { return 2 * slots_ * levels_; }
  [[nodiscard]] std::size_t num_switches() const override { return num_switches_; }
  [[nodiscard]] Route route(NicAddr src, NicAddr dst) const override;
  [[nodiscard]] Route route_via(NicAddr src, NicAddr dst, int top_level) const override;
  [[nodiscard]] Route broadcast_route(NicAddr src, NicAddr dst, int top) const override;
  void compute_route(NicAddr src, NicAddr dst, RouteScratch& out) const override;
  void compute_broadcast_route(NicAddr src, NicAddr dst, int top,
                               RouteScratch& out) const override;
  /// Cuts at the tree level whose subtree count lands closest to `target`:
  /// each size-k^l subtree of nodes becomes one domain, so any route between
  /// two domains climbs through at least one trunk stage.
  [[nodiscard]] int domain_cut(int target, std::vector<int>& nic_domain) const override;
  [[nodiscard]] int merge_level(NicAddr a, NicAddr b) const override;
  [[nodiscard]] int top_level() const override { return static_cast<int>(levels_); }

  [[nodiscard]] std::size_t arity() const { return arity_; }
  [[nodiscard]] std::size_t levels() const { return levels_; }
  [[nodiscard]] std::size_t slots() const { return slots_; }

 private:
  [[nodiscard]] std::size_t pow_k(std::size_t e) const { return pow_[e]; }
  [[nodiscard]] LinkId node_up(std::size_t p) const;
  [[nodiscard]] LinkId node_down(std::size_t p) const;
  /// Up trunk at stage j (1-based) out of the size-k^j subtree `group`.
  [[nodiscard]] LinkId up_trunk(std::size_t j, std::size_t group, std::size_t h) const;
  [[nodiscard]] LinkId down_trunk(std::size_t j, std::size_t group, std::size_t h) const;
  /// Aggregate switch at level j covering the size-k^(j+1) subtree `group`.
  [[nodiscard]] SwitchId sw(std::size_t j, std::size_t group) const;
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x);
  /// The level a route forced through `top_level` climbs to: at least the
  /// pair's merge level, clamped to [1, levels].
  [[nodiscard]] std::size_t via_top(NicAddr src, NicAddr dst, int top_level) const;
  /// The one route builder: fills `out` allocation-free; route_impl wraps it.
  void route_into(std::size_t src, std::size_t dst, std::size_t top,
                  std::uint64_t trunk_hash, RouteScratch& out) const;
  [[nodiscard]] Route route_impl(std::size_t src, std::size_t dst, std::size_t top,
                                 std::uint64_t trunk_hash) const;

  std::size_t arity_;
  std::size_t levels_;
  std::size_t slots_;
  std::size_t nics_;
  std::size_t num_switches_ = 0;
  std::vector<std::size_t> pow_;          // pow_[e] = arity^e
  std::vector<std::size_t> sw_level_off_; // switch-id offset per level
};

}  // namespace qmb::net
