// Route correctness on the paths the Fabric runs: for every (src, dst)
// pair, Topology::compute_route must fill its scratch element-for-element
// identical to the reference Topology::route, and at every broadcast top
// level Topology::compute_broadcast_route must fill it identical to the
// reference broadcast_route.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/fat_tree.hpp"
#include "net/topology.hpp"

namespace qmb::net {
namespace {

void expect_view_equals_route(const RouteView& view, const Route& fresh, NicAddr src,
                              NicAddr dst) {
  ASSERT_EQ(view.links.size(), fresh.links.size())
      << "src=" << src.value() << " dst=" << dst.value();
  ASSERT_EQ(view.switches.size(), fresh.switches.size())
      << "src=" << src.value() << " dst=" << dst.value();
  for (std::size_t i = 0; i < fresh.links.size(); ++i) {
    EXPECT_EQ(view.links[i], fresh.links[i])
        << "link " << i << " src=" << src.value() << " dst=" << dst.value();
  }
  for (std::size_t i = 0; i < fresh.switches.size(); ++i) {
    EXPECT_EQ(view.switches[i], fresh.switches[i])
        << "switch " << i << " src=" << src.value() << " dst=" << dst.value();
  }
}

void check_exhaustive(const Topology& topo) {
  const auto n = static_cast<std::int32_t>(topo.max_nics());

  // Unicast: compute_route, the Fabric's one unicast path, must fill the
  // scratch hop-for-hop identical to the reference Route. One scratch is
  // reused across pairs, as the Fabric reuses its own.
  RouteScratch scratch;
  for (std::int32_t s = 0; s < n; ++s) {
    for (std::int32_t d = 0; d < n; ++d) {
      if (s == d) continue;
      const NicAddr src(s), dst(d);
      topo.compute_route(src, dst, scratch);
      expect_view_equals_route(scratch.view(), topo.route(src, dst), src, dst);
    }
  }

  // Broadcast variants at every level the topology can be asked for, into
  // the same reused scratch.
  for (int top = 0; top <= topo.top_level(); ++top) {
    for (std::int32_t s = 0; s < n; ++s) {
      for (std::int32_t d = 0; d < n; ++d) {
        if (s == d) continue;
        const NicAddr src(s), dst(d);
        topo.compute_broadcast_route(src, dst, top, scratch);
        expect_view_equals_route(scratch.view(), topo.broadcast_route(src, dst, top), src, dst);
      }
    }
  }
}

TEST(RouteCache, ExhaustiveCrossbar16) { check_exhaustive(SingleCrossbar(16)); }

TEST(RouteCache, ExhaustiveCrossbar3) { check_exhaustive(SingleCrossbar(3)); }

TEST(RouteCache, ExhaustiveQuaternaryFatTree) {
  // Quaternary 2-level tree, 16 NICs — the QsNet Elite-16 shape.
  check_exhaustive(FatTree(4, 2, 16));
}

TEST(RouteCache, ExhaustiveBinaryFatTreePartiallyPopulated) {
  // 3 levels of arity 2 with only 6 of 8 slots wired up.
  check_exhaustive(FatTree(2, 3, 6));
}

TEST(RouteCache, ExhaustiveFatTreeFitting) {
  check_exhaustive(FatTree::fitting(4, 32));
}

}  // namespace
}  // namespace qmb::net
