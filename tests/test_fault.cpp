#include "net/fault.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "net/fabric.hpp"
#include "net/topology.hpp"

namespace qmb::net {
namespace {

using namespace qmb::sim::literals;
using sim::Engine;

struct ProbeBody {
  int value = 0;
};

Packet make_packet(int src, int dst, int value = 0) {
  return Packet(NicAddr(src), NicAddr(dst), 64, ProbeBody{value});
}

TEST(FaultInjector, NoRulesDeliversEverything) {
  FaultInjector fi;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fi.decide(make_packet(0, 1)), FaultAction::kDeliver);
  }
  EXPECT_EQ(fi.dropped(), 0u);
}

TEST(FaultInjector, NthRuleDropsExactlyThatMatch) {
  FaultInjector fi;
  fi.install({.src = 0, .dst = 1, .nth = 3});
  int dropped = 0;
  for (int i = 0; i < 10; ++i) {
    if (fi.decide(make_packet(0, 1)) == FaultAction::kDrop) ++dropped;
  }
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(fi.dropped(), 1u);
}

TEST(FaultInjector, FiltersBySrcAndDst) {
  FaultInjector fi;
  fi.install({.src = 0, .dst = 1, .nth = 1});
  EXPECT_EQ(fi.decide(make_packet(2, 1)), FaultAction::kDeliver);
  EXPECT_EQ(fi.decide(make_packet(0, 2)), FaultAction::kDeliver);
  EXPECT_EQ(fi.decide(make_packet(0, 1)), FaultAction::kDrop);
}

TEST(FaultInjector, WildcardFilters) {
  FaultInjector fi;
  fi.install({.dst = 3, .nth = 1});
  EXPECT_EQ(fi.decide(make_packet(7, 2)), FaultAction::kDeliver);
  EXPECT_EQ(fi.decide(make_packet(7, 3)), FaultAction::kDrop);
}

TEST(FaultInjector, DuplicateAction) {
  FaultInjector fi;
  fi.install({.action = FaultAction::kDuplicate, .nth = 2});
  EXPECT_EQ(fi.decide(make_packet(0, 1)), FaultAction::kDeliver);
  EXPECT_EQ(fi.decide(make_packet(0, 1)), FaultAction::kDuplicate);
  EXPECT_EQ(fi.duplicated(), 1u);
}

TEST(FaultInjector, CorruptAction) {
  FaultInjector fi;
  fi.install({.action = FaultAction::kCorrupt, .nth = 2});
  EXPECT_EQ(fi.decide(make_packet(0, 1)), FaultAction::kDeliver);
  EXPECT_EQ(fi.decide(make_packet(0, 1)), FaultAction::kCorrupt);
  EXPECT_EQ(fi.corrupted(), 1u);
}

TEST(FaultInjector, ReorderActionReportsDelay) {
  FaultInjector fi;
  fi.install(
      {.action = FaultAction::kReorder, .nth = 1, .delay_ps = sim::microseconds(10).picos()});
  EXPECT_EQ(fi.decide(make_packet(0, 1)), FaultAction::kReorder);
  EXPECT_EQ(fi.last_reorder_delay(), sim::microseconds(10));
  EXPECT_EQ(fi.reordered(), 1u);
}

TEST(FaultInjector, RandomRuleIsDeterministicPerSeed) {
  auto run = [] {
    FaultInjector fi;
    fi.install({.prob = 0.3, .seed = 99});
    std::vector<int> outcomes;
    for (int i = 0; i < 50; ++i) {
      outcomes.push_back(fi.decide(make_packet(0, 1)) == FaultAction::kDrop ? 1 : 0);
    }
    return outcomes;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjector, RandomRuleRateApproximatesP) {
  FaultInjector fi;
  fi.install({.prob = 0.2, .seed = 7});
  int dropped = 0;
  for (int i = 0; i < 10000; ++i) {
    if (fi.decide(make_packet(0, 1)) == FaultAction::kDrop) ++dropped;
  }
  EXPECT_NEAR(dropped / 10000.0, 0.2, 0.03);
}

TEST(FaultInjector, FirstMatchingRuleWins) {
  FaultInjector fi;
  fi.install({.src = 0, .nth = 1});
  fi.install({.src = 0, .action = FaultAction::kDuplicate, .nth = 1});
  EXPECT_EQ(fi.decide(make_packet(0, 1)), FaultAction::kDrop);
}

TEST(FaultInjector, ClearRemovesRules) {
  FaultInjector fi;
  fi.install({.nth = 1});
  fi.clear();
  EXPECT_EQ(fi.decide(make_packet(0, 1)), FaultAction::kDeliver);
}

TEST(FaultInjector, RandomRuleWrapperMatchesInstall) {
  // add_random_rule, kept for perfbench, must behave exactly like the
  // FaultSpec it stands for, behind an nth rule and with a non-default
  // action.
  FaultInjector wrapped;
  wrapped.install({.src = 0, .dst = 1, .action = FaultAction::kDuplicate, .nth = 2});
  wrapped.add_random_rule(std::nullopt, std::nullopt, 0.25, 42);
  wrapped.add_random_rule(NicAddr(0), NicAddr(1), 0.5, 43, FaultAction::kCorrupt);

  FaultInjector installed;
  installed.install({.src = 0, .dst = 1, .action = FaultAction::kDuplicate, .nth = 2});
  installed.install({.prob = 0.25, .seed = 42});
  installed.install({.src = 0, .dst = 1, .action = FaultAction::kCorrupt, .prob = 0.5, .seed = 43});

  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(wrapped.decide(make_packet(0, 1)), installed.decide(make_packet(0, 1)))
        << "packet " << i;
  }
  EXPECT_EQ(wrapped.corrupted(), installed.corrupted());
  EXPECT_GT(wrapped.corrupted(), 0u);
}

TEST(FaultInjector, InstallRejectsMalformedSpecs) {
  FaultInjector fi;
  FaultSpec no_mode;  // neither nth, prob, nor a window
  EXPECT_FALSE(validate(no_mode).empty());
  EXPECT_THROW(fi.install(no_mode), std::invalid_argument);

  FaultSpec two_modes;
  two_modes.nth = 1;
  two_modes.prob = 0.5;
  EXPECT_THROW(fi.install(two_modes), std::invalid_argument);

  FaultSpec deliver;
  deliver.nth = 1;
  deliver.action = FaultAction::kDeliver;
  EXPECT_THROW(fi.install(deliver), std::invalid_argument);

  FaultSpec reorder_no_delay;
  reorder_no_delay.nth = 1;
  reorder_no_delay.action = FaultAction::kReorder;
  EXPECT_THROW(fi.install(reorder_no_delay), std::invalid_argument);

  EXPECT_EQ(fi.rule_count(), 0u);
}

TEST(FaultInjector, InstallAcceptsValidPlanInOrder) {
  FaultInjector fi;
  FaultSpec first;
  first.nth = 1;
  first.action = FaultAction::kDrop;
  FaultSpec second;
  second.nth = 1;
  second.action = FaultAction::kDuplicate;
  fi.install_plan(std::vector<FaultSpec>{first, second});
  EXPECT_EQ(fi.rule_count(), 2u);
  // First installed rule wins the shared first match.
  EXPECT_EQ(fi.decide(make_packet(0, 1)), FaultAction::kDrop);
}

TEST(FaultInjector, ParseFaultActionRoundTrips) {
  for (const auto a : {FaultAction::kDrop, FaultAction::kDuplicate,
                       FaultAction::kReorder, FaultAction::kCorrupt}) {
    EXPECT_EQ(parse_fault_action(to_string(a)), a);
  }
  EXPECT_EQ(parse_fault_action("dup"), FaultAction::kDuplicate);
  EXPECT_FALSE(parse_fault_action("explode").has_value());
}

TEST(FabricFault, DroppedPacketNeverDelivered) {
  Engine e;
  Fabric f(e, std::make_unique<SingleCrossbar>(2),
           FabricParams{LinkParams{300_ns, 2.0e9}, SwitchParams{300_ns}});
  int delivered = 0;
  f.attach([&](Packet&&) { ++delivered; });
  f.attach([&](Packet&&) { ++delivered; });
  f.faults().install({.src = 0, .dst = 1, .nth = 1});
  f.send(make_packet(0, 1));
  f.send(make_packet(0, 1));
  e.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(f.packets_sent(), 2u);
  EXPECT_EQ(f.packets_delivered(), 1u);
}

TEST(FabricFault, DuplicatedPacketDeliveredTwice) {
  Engine e;
  Fabric f(e, std::make_unique<SingleCrossbar>(2),
           FabricParams{LinkParams{300_ns, 2.0e9}, SwitchParams{300_ns}});
  int delivered = 0;
  f.attach([&](Packet&&) { ++delivered; });
  f.attach([&](Packet&& p) {
    ++delivered;
    EXPECT_NE(body_as<ProbeBody>(p), nullptr);  // clone carries the body
  });
  f.faults().install({.src = 0, .dst = 1, .action = FaultAction::kDuplicate, .nth = 1});
  f.send(make_packet(0, 1, 5));
  e.run();
  EXPECT_EQ(delivered, 2);
}

TEST(FabricFault, CorruptedPacketArrivesMarked) {
  Engine e;
  Fabric f(e, std::make_unique<SingleCrossbar>(2),
           FabricParams{LinkParams{300_ns, 2.0e9}, SwitchParams{300_ns}});
  int delivered = 0;
  int corrupted = 0;
  f.attach([&](Packet&&) { ++delivered; });
  f.attach([&](Packet&& p) {
    ++delivered;
    if (p.corrupted) ++corrupted;
  });
  f.faults().install({.src = 0, .dst = 1, .action = FaultAction::kCorrupt, .nth = 2});
  f.send(make_packet(0, 1));
  f.send(make_packet(0, 1));
  e.run();
  // Corruption is not loss at the fabric level: the packet still arrives,
  // flagged, and the receiving NIC's CRC check discards it.
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(corrupted, 1);
  EXPECT_EQ(f.faults().corrupted(), 1u);
}

TEST(FabricFault, ReorderedPacketArrivesAfterLaterTraffic) {
  Engine e;
  Fabric f(e, std::make_unique<SingleCrossbar>(2),
           FabricParams{LinkParams{300_ns, 2.0e9}, SwitchParams{300_ns}});
  std::vector<int> order;
  f.attach([&](Packet&&) {});
  f.attach([&](Packet&& p) {
    const auto* body = body_as<ProbeBody>(p);
    ASSERT_NE(body, nullptr);
    order.push_back(body->value);
  });
  f.faults().install({.src = 0, .dst = 1, .action = FaultAction::kReorder, .nth = 1,
                      .delay_ps = sim::microseconds(50).picos()});
  f.send(make_packet(0, 1, 1));  // delayed past the second packet
  f.send(make_packet(0, 1, 2));
  e.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(f.faults().reordered(), 1u);
}

TEST(FabricFault, TalliesSurfaceAsMetrics) {
  Engine e;
  Fabric f(e, std::make_unique<SingleCrossbar>(2),
           FabricParams{LinkParams{300_ns, 2.0e9}, SwitchParams{300_ns}});
  f.attach([](Packet&&) {});
  f.attach([](Packet&&) {});
  f.faults().install({.nth = 1});
  // Fires on the 2nd send (its 1st match).
  f.faults().install({.action = FaultAction::kDuplicate, .nth = 1});
  f.send(make_packet(0, 1));
  f.send(make_packet(0, 1));
  e.run();
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  for (const obs::MetricValue& m : e.metrics().snapshot()) {
    if (m.name == "fault.dropped") dropped = static_cast<std::uint64_t>(m.value);
    if (m.name == "fault.duplicated") duplicated = static_cast<std::uint64_t>(m.value);
  }
  EXPECT_EQ(dropped, f.faults().dropped());
  EXPECT_EQ(duplicated, f.faults().duplicated());
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(duplicated, 1u);
}

}  // namespace
}  // namespace qmb::net
