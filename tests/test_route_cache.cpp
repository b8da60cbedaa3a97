// Route correctness on the paths the Fabric runs: for every (src, dst)
// pair, Topology::compute_route must fill its scratch element-for-element
// identical to the reference Topology::route, and for every broadcast top
// level the RouteCache's memoized RouteView must equal a fresh
// broadcast_route call. The broadcast half is what licenses the Fabric's
// memoization (topologies are immutable after construction, so first-call
// results are forever-valid).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/fat_tree.hpp"
#include "net/route_cache.hpp"
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

  // Broadcast variants at every level the topology can be asked for: the
  // memoized view equals a fresh broadcast_route, a repeat hits the same
  // arena storage, and every view handed out survives all later inserts.
  RouteCache cache(topo);
  struct Captured {
    NicAddr src, dst;
    int top;
    RouteView view;
  };
  std::vector<Captured> captured;
  for (int top = 0; top <= topo.top_level(); ++top) {
    for (std::int32_t s = 0; s < n; ++s) {
      for (std::int32_t d = 0; d < n; ++d) {
        if (s == d) continue;
        const NicAddr src(s), dst(d);
        RouteView view = cache.broadcast(src, dst, top);
        expect_view_equals_route(view, topo.broadcast_route(src, dst, top), src, dst);
        RouteView again = cache.broadcast(src, dst, top);
        EXPECT_EQ(again.links.data(), view.links.data());
        captured.push_back({src, dst, top, view});
      }
    }
  }
  for (const Captured& c : captured) {
    expect_view_equals_route(c.view, topo.broadcast_route(c.src, c.dst, c.top), c.src,
                             c.dst);
  }
  EXPECT_EQ(cache.misses(), static_cast<std::uint64_t>(captured.size()));
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(captured.size()));
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

TEST(RouteCache, CountsAndEntries) {
  SingleCrossbar topo(4);
  RouteCache cache(topo);
  EXPECT_EQ(cache.entries(), 0u);
  (void)cache.broadcast(NicAddr(0), NicAddr(1), 0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.entries(), 1u);
  (void)cache.broadcast(NicAddr(0), NicAddr(1), 0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  // Each (src, dst, top) is a distinct key.
  (void)cache.broadcast(NicAddr(1), NicAddr(0), 0);
  (void)cache.broadcast(NicAddr(0), NicAddr(1), 1);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.entries(), 3u);
}

}  // namespace
}  // namespace qmb::net
