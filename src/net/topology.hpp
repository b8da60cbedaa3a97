// Topology interface: maps (src NIC, dst NIC) to an ordered route of links
// and switches. The Fabric owns the Link/SwitchNode instances; a Topology is
// pure structure.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "net/types.hpp"

namespace qmb::net {

struct Route {
  std::vector<LinkId> links;       // traversal order; size == switches.size() + 1
  std::vector<SwitchId> switches;  // switches crossed between consecutive links
};

/// Non-owning view of a route held elsewhere (a RouteScratch).
struct RouteView {
  std::span<const LinkId> links;       // size == switches.size() + 1
  std::span<const SwitchId> switches;
};

/// Caller-owned scratch compute_route and compute_broadcast_route fill:
/// fixed capacity, no heap, no shared state — safe from any thread. A route
/// has 2 * levels links, so FatTree rejects trees deeper than 16 levels at
/// construction.
struct RouteScratch {
  static constexpr std::size_t kMaxHops = 32;
  std::array<LinkId, kMaxHops> links;
  std::array<SwitchId, kMaxHops> switches;
  std::size_t num_links = 0;
  std::size_t num_switches = 0;

  /// The filled route; valid until the scratch is reused.
  [[nodiscard]] RouteView view() const {
    return {std::span<const LinkId>(links.data(), num_links),
            std::span<const SwitchId>(switches.data(), num_switches)};
  }
};

class Topology {
 public:
  virtual ~Topology() = default;

  /// Number of NIC attachment points.
  [[nodiscard]] virtual std::size_t max_nics() const = 0;
  /// Total unidirectional links to instantiate.
  [[nodiscard]] virtual std::size_t num_links() const = 0;
  /// Total switch elements to instantiate.
  [[nodiscard]] virtual std::size_t num_switches() const = 0;

  /// Unicast route as fresh vectors: the reference compute_route is tested
  /// against. Precondition: src != dst, both < max_nics().
  [[nodiscard]] virtual Route route(NicAddr src, NicAddr dst) const = 0;

  /// The Fabric's one unicast path: fills `out` in O(1) without allocating,
  /// identical hop-for-hop to route(). Must be pure — no memoization, no
  /// mutation — so it is safe from any thread. Same precondition as route().
  virtual void compute_route(NicAddr src, NicAddr dst, RouteScratch& out) const = 0;

  /// Partitions the NIC index space into locality-preserving execution
  /// domains for the conservative PDES engine, aiming for roughly `target`
  /// domains. Fills `nic_domain` (resized to max_nics()) with each NIC's
  /// domain id (dense, 0-based, non-decreasing in NIC index) and returns the
  /// domain count. The base topology cannot be cut: one domain.
  [[nodiscard]] virtual int domain_cut(int target, std::vector<int>& nic_domain) const;

  /// Route forced through (at least) tree level `top_level`; used to model
  /// hardware broadcast, which always climbs to the level spanning the whole
  /// destination range. Defaults to the plain unicast route for topologies
  /// without a level structure.
  [[nodiscard]] virtual Route route_via(NicAddr src, NicAddr dst, int top_level) const {
    (void)top_level;
    return route(src, dst);
  }

  /// Smallest tree level whose subtree contains both NICs (0 for a single
  /// crossbar). Used by hardware-broadcast timing.
  [[nodiscard]] virtual int merge_level(NicAddr a, NicAddr b) const {
    (void)a; (void)b;
    return 0;
  }

  /// Height of the tree (0 for a single crossbar). A hardware broadcast
  /// always climbs to this level — QsNet broadcasts through the root of the
  /// fat tree regardless of the destination range.
  [[nodiscard]] virtual int top_level() const { return 0; }

  /// Route used by hardware broadcast replication: like route_via, but the
  /// up-path trunk choice depends only on `src`, so every copy of one
  /// broadcast shares the same up-path links (the switches replicate at the
  /// top, they do not re-send from the source). Defaults to route_via.
  /// The reference compute_broadcast_route is tested against.
  [[nodiscard]] virtual Route broadcast_route(NicAddr src, NicAddr dst, int top) const {
    return route_via(src, dst, top);
  }

  /// The Fabric's broadcast path: fills `out` without allocating,
  /// identical hop-for-hop to broadcast_route(). Pure, like compute_route.
  /// Defaults to compute_route, as broadcast_route defaults to the unicast
  /// route.
  virtual void compute_broadcast_route(NicAddr src, NicAddr dst, int top,
                                       RouteScratch& out) const {
    (void)top;
    compute_route(src, dst, out);
  }
};

/// Single crossbar switch with `ports` full-duplex NIC cables — the shape of
/// the paper's 8- and 16-node Myrinet 2000 clusters.
class SingleCrossbar final : public Topology {
 public:
  explicit SingleCrossbar(std::size_t ports);

  [[nodiscard]] std::size_t max_nics() const override { return ports_; }
  [[nodiscard]] std::size_t num_links() const override { return 2 * ports_; }
  [[nodiscard]] std::size_t num_switches() const override { return 1; }
  [[nodiscard]] Route route(NicAddr src, NicAddr dst) const override;
  void compute_route(NicAddr src, NicAddr dst, RouteScratch& out) const override;
  /// Contiguous equal blocks of ports; the single switch is shared, which is
  /// fine — in PDES mode all link/switch state is coordinator-owned.
  [[nodiscard]] int domain_cut(int target, std::vector<int>& nic_domain) const override;

 private:
  std::size_t ports_;
};

}  // namespace qmb::net
