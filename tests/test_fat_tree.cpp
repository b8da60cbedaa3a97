#include "net/fat_tree.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

namespace qmb::net {
namespace {

TEST(FatTree, FittingPicksSmallestDepth) {
  EXPECT_EQ(FatTree::fitting(4, 4).levels(), 1u);
  EXPECT_EQ(FatTree::fitting(4, 5).levels(), 2u);
  EXPECT_EQ(FatTree::fitting(4, 16).levels(), 2u);
  EXPECT_EQ(FatTree::fitting(4, 17).levels(), 3u);
  EXPECT_EQ(FatTree::fitting(2, 1024).levels(), 10u);
}

TEST(FatTree, InventoryCounts) {
  FatTree t(4, 2, 16);  // Elite-16-like: quaternary, 2 levels
  EXPECT_EQ(t.slots(), 16u);
  EXPECT_EQ(t.num_links(), 2u * 16u * 2u);
  // level 0: 16/4 = 4 switches; level 1: 16/16 = 1.
  EXPECT_EQ(t.num_switches(), 5u);
}

TEST(FatTree, MergeLevelByPrefix) {
  FatTree t(4, 2, 16);
  EXPECT_EQ(t.merge_level(NicAddr(0), NicAddr(1)), 1);   // same leaf group
  EXPECT_EQ(t.merge_level(NicAddr(0), NicAddr(4)), 2);   // different leaf groups
  EXPECT_EQ(t.merge_level(NicAddr(13), NicAddr(15)), 1);
  EXPECT_EQ(t.merge_level(NicAddr(3), NicAddr(12)), 2);
}

TEST(FatTree, RouteLengthMatchesMergeLevel) {
  FatTree t(4, 3, 64);
  for (int src = 0; src < 64; src += 7) {
    for (int dst = 0; dst < 64; dst += 5) {
      if (src == dst) continue;
      const int l = t.merge_level(NicAddr(src), NicAddr(dst));
      const Route r = t.route(NicAddr(src), NicAddr(dst));
      EXPECT_EQ(r.links.size(), static_cast<std::size_t>(2 * l));
      EXPECT_EQ(r.switches.size(), static_cast<std::size_t>(2 * l - 1));
    }
  }
}

TEST(FatTree, RouteStructureIsConsistent) {
  FatTree t(4, 2, 16);
  const Route r = t.route(NicAddr(0), NicAddr(5));  // merge level 2
  ASSERT_EQ(r.links.size(), 4u);
  ASSERT_EQ(r.switches.size(), 3u);
  // All link ids must be distinct and in range.
  std::set<LinkId> links(r.links.begin(), r.links.end());
  EXPECT_EQ(links.size(), r.links.size());
  for (const LinkId l : r.links) {
    EXPECT_GE(l.value(), 0);
    EXPECT_LT(l.index(), t.num_links());
  }
  for (const SwitchId s : r.switches) {
    EXPECT_GE(s.value(), 0);
    EXPECT_LT(s.index(), t.num_switches());
  }
}

TEST(FatTree, SameLeafPairUsesOnlyLeafSwitch) {
  FatTree t(4, 2, 16);
  const Route r = t.route(NicAddr(8), NicAddr(9));
  ASSERT_EQ(r.links.size(), 2u);
  ASSERT_EQ(r.switches.size(), 1u);
  // Leaf switch of nodes 8..11 is level-0 group 2.
  EXPECT_EQ(r.switches[0], SwitchId(2));
}

TEST(FatTree, RouteIsDeterministic) {
  FatTree t(4, 3, 64);
  const Route a = t.route(NicAddr(3), NicAddr(60));
  const Route b = t.route(NicAddr(3), NicAddr(60));
  EXPECT_EQ(a.links, b.links);
  EXPECT_EQ(a.switches, b.switches);
}

TEST(FatTree, UpAndDownPathsMeetAtCommonAncestor) {
  FatTree t(2, 4, 16);
  const Route r = t.route(NicAddr(0), NicAddr(15));  // full-height route
  // The middle switch is the top of the route; it must be the same whether
  // computed from src or dst side: level 3, group 0.
  ASSERT_EQ(r.switches.size(), 7u);
  const SwitchId top = r.switches[3];
  // Levels: 16/2^4 = 1 switch at level 3 -> last id.
  EXPECT_EQ(top.index(), t.num_switches() - 1);
}

TEST(FatTree, RouteViaForcesHigherTop) {
  FatTree t(4, 2, 16);
  // Nodes 0 and 1 share a leaf, but a broadcast spanning all 16 nodes must
  // climb to level 2.
  const Route direct = t.route(NicAddr(0), NicAddr(1));
  const Route via = t.route_via(NicAddr(0), NicAddr(1), 2);
  EXPECT_EQ(direct.links.size(), 2u);
  EXPECT_EQ(via.links.size(), 4u);
}

TEST(FatTree, RouteViaSelfAllowed) {
  FatTree t(4, 2, 16);
  const Route r = t.route_via(NicAddr(3), NicAddr(3), 2);
  EXPECT_EQ(r.links.size(), 4u);  // up to the root and back down to self
}

TEST(FatTree, PartialPopulationRoutes) {
  FatTree t(4, 2, 8);  // the paper's 8-node jobs on an Elite-16
  for (int src = 0; src < 8; ++src) {
    for (int dst = 0; dst < 8; ++dst) {
      if (src == dst) continue;
      const Route r = t.route(NicAddr(src), NicAddr(dst));
      EXPECT_GE(r.links.size(), 2u);
      EXPECT_LE(r.links.size(), 4u);
    }
  }
}

TEST(FatTree, InvalidConstructionThrows) {
  EXPECT_THROW(FatTree(1, 2, 2), std::invalid_argument);
  EXPECT_THROW(FatTree(4, 0, 2), std::invalid_argument);
  EXPECT_THROW(FatTree(4, 2, 17), std::invalid_argument);  // more nics than slots
  EXPECT_THROW(FatTree(4, 2, 1), std::invalid_argument);
}

TEST(FatTree, RejectsTreesDeeperThanRouteScratch) {
  // A route has 2 * levels links; 16 levels fill RouteScratch exactly.
  EXPECT_NO_THROW(FatTree(2, 16, 2));
  EXPECT_THROW(FatTree(2, 17, 2), std::invalid_argument);
  // The depth check runs before any table is built: 2^64 slots would
  // otherwise fail the size check first, with a different message.
  try {
    FatTree(2, 64, 2);
    FAIL() << "a 64-level tree must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("RouteScratch"), std::string::npos) << e.what();
  }
}

TEST(FatTree, TrunkSelectionStaysInBounds) {
  FatTree t(8, 3, 512);
  // Exercise many pairs; internal asserts/bounds in route() catch misuse.
  for (int src = 0; src < 512; src += 37) {
    for (int dst = 1; dst < 512; dst += 41) {
      if (src == dst) continue;
      const Route r = t.route(NicAddr(src), NicAddr(dst));
      for (const LinkId l : r.links) EXPECT_LT(l.index(), t.num_links());
    }
  }
}

}  // namespace
}  // namespace qmb::net
