// Property-style tests of the fabric timing model: contention, trunk
// dispersion, broadcast link sharing, and blackout windows.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "net/fabric.hpp"
#include "net/fat_tree.hpp"
#include "net/topology.hpp"

namespace qmb::net {
namespace {

using namespace qmb::sim::literals;
using sim::Engine;
using sim::SimTime;

struct MarkBody {
  int value = 0;
};

Packet make_packet(int src, int dst, std::uint32_t bytes) {
  return Packet(NicAddr(src), NicAddr(dst), bytes, MarkBody{});
}

TEST(NetProperties, TwoFlowsSharingALinkHalveThroughput) {
  // Two senders stream to the same destination: the shared downlink must
  // stretch total completion to ~2x a single flow's serialization time.
  auto run = [](bool second_flow) {
    Engine e;
    Fabric f(e, std::make_unique<SingleCrossbar>(4),
             FabricParams{LinkParams{300_ns, 2.0e9}, SwitchParams{300_ns}});
    for (int i = 0; i < 4; ++i) f.attach([](Packet&&) {});
    for (int i = 0; i < 50; ++i) {
      f.send(make_packet(0, 3, 4000));
      if (second_flow) f.send(make_packet(1, 3, 4000));
    }
    e.run();
    return e.now().picos();
  };
  const auto one = run(false);
  const auto two = run(true);
  EXPECT_NEAR(static_cast<double>(two) / static_cast<double>(one), 2.0, 0.1);
}

TEST(NetProperties, IndependentFlowsDoNotInterfere) {
  auto completion = [](bool with_other_flow) {
    Engine e;
    Fabric f(e, std::make_unique<SingleCrossbar>(4),
             FabricParams{LinkParams{300_ns, 2.0e9}, SwitchParams{300_ns}});
    for (int i = 0; i < 4; ++i) f.attach([](Packet&&) {});
    for (int i = 0; i < 20; ++i) {
      f.send(make_packet(0, 1, 4000));
      if (with_other_flow) f.send(make_packet(2, 3, 4000));
    }
    e.run();
    return e.now().picos();
  };
  EXPECT_EQ(completion(false), completion(true));
}

TEST(NetProperties, FatTreeTrunksDisperseFlows) {
  // Many (src,dst) pairs crossing the top level should spread across the
  // parallel trunk links rather than converging on one.
  FatTree t(4, 3, 64);
  std::set<LinkId> up_trunks_used;
  for (int src = 0; src < 16; ++src) {
    for (int dst = 48; dst < 64; ++dst) {
      const Route r = t.route(NicAddr(src), NicAddr(dst));
      // Link index 2 is the stage-2 up trunk on a 3-level route.
      ASSERT_EQ(r.links.size(), 6u);
      up_trunks_used.insert(r.links[2]);
    }
  }
  EXPECT_GT(up_trunks_used.size(), 4u);  // 16 trunks exist; hashing must spread
}

TEST(NetProperties, BroadcastUsesEachLinkOnce) {
  Engine e;
  Fabric f(e, std::make_unique<FatTree>(4, 2, 16),
           FabricParams{LinkParams{250_ns, 3.4e8}, SwitchParams{200_ns}});
  for (int i = 0; i < 16; ++i) f.attach([](Packet&&) {});
  f.broadcast(NicAddr(0), NicAddr(0), NicAddr(15), 24, MarkBody{});
  e.run();
  // The source's up-link carried exactly one copy despite 16 destinations.
  EXPECT_EQ(f.link(LinkId(0)).packets_carried(), 1u);
  // Each destination's down-link carried exactly one copy.
  for (int d = 0; d < 16; ++d) {
    EXPECT_EQ(f.link(LinkId(16 + d)).packets_carried(), 1u) << d;
  }
}

TEST(NetProperties, BroadcastFasterThanSerialUnicasts) {
  auto broadcast_span = [] {
    Engine e;
    Fabric f(e, std::make_unique<FatTree>(4, 3, 64),
             FabricParams{LinkParams{250_ns, 3.4e8}, SwitchParams{200_ns}});
    for (int i = 0; i < 64; ++i) f.attach([](Packet&&) {});
    f.broadcast(NicAddr(0), NicAddr(0), NicAddr(63), 256, MarkBody{});
    e.run();
    return e.now().picos();
  };
  auto serial_span = [] {
    Engine e;
    Fabric f(e, std::make_unique<FatTree>(4, 3, 64),
             FabricParams{LinkParams{250_ns, 3.4e8}, SwitchParams{200_ns}});
    for (int i = 0; i < 64; ++i) f.attach([](Packet&&) {});
    for (int d = 1; d < 64; ++d) f.send(make_packet(0, d, 256));
    e.run();
    return e.now().picos();
  };
  EXPECT_LT(broadcast_span() * 3, serial_span());
}

TEST(NetProperties, BlackoutDropsOnlyInsideWindow) {
  Engine e;
  Fabric f(e, std::make_unique<SingleCrossbar>(2),
           FabricParams{LinkParams{300_ns, 2.0e9}, SwitchParams{300_ns}});
  int delivered = 0;
  f.attach([](Packet&&) {});
  f.attach([&](Packet&&) { ++delivered; });
  f.faults().install({.src = 0, .dst = 1, .from_ps = 10'000'000, .until_ps = 20'000'000});
  // One packet before, two inside, one after the window.
  e.schedule(5_us, [&] { f.send(make_packet(0, 1, 64)); });
  e.schedule(12_us, [&] { f.send(make_packet(0, 1, 64)); });
  e.schedule(18_us, [&] { f.send(make_packet(0, 1, 64)); });
  e.schedule(25_us, [&] { f.send(make_packet(0, 1, 64)); });
  e.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(f.faults().dropped(), 2u);
}

TEST(NetProperties, TraversalTimeIsMonotoneInLoad) {
  // Adding background load on a route never makes a later packet arrive
  // earlier.
  auto arrival_with_load = [](int load_packets) {
    Engine e;
    Fabric f(e, std::make_unique<SingleCrossbar>(3),
             FabricParams{LinkParams{300_ns, 2.0e9}, SwitchParams{300_ns}});
    SimTime probe_arrival;
    f.attach([](Packet&&) {});
    f.attach([](Packet&&) {});
    f.attach([&](Packet&&) { probe_arrival = e.now(); });
    for (int i = 0; i < load_packets; ++i) f.send(make_packet(0, 2, 4000));
    f.send(make_packet(1, 2, 64));  // the probe
    e.run();
    return probe_arrival.picos();
  };
  std::int64_t prev = -1;
  for (int load : {0, 1, 2, 5, 10}) {
    const auto t = arrival_with_load(load);
    EXPECT_GE(t, prev) << "load " << load;
    prev = t;
  }
}

TEST(NetProperties, LargeFatTreeRoutesAllPairsSampled) {
  // 1024-slot tree: sampled all-pairs routing stays structurally valid.
  FatTree t(16, 3, 1024);  // 4096 slots, 1024 populated
  for (int src = 0; src < 1024; src += 101) {
    for (int dst = 7; dst < 1024; dst += 97) {
      if (src == dst) continue;
      const Route r = t.route(NicAddr(src), NicAddr(dst));
      ASSERT_EQ(r.links.size(), r.switches.size() + 1);
      std::set<LinkId> unique(r.links.begin(), r.links.end());
      EXPECT_EQ(unique.size(), r.links.size());
    }
  }
}

}  // namespace
}  // namespace qmb::net
