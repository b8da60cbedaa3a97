// Stress and edge-case tests of the MCP point-to-point protocol:
// fragmentation boundaries, loss/duplication soaks, blackout recovery, and
// ordering invariants under adverse conditions.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "myrinet/gm.hpp"
#include "net/topology.hpp"

namespace qmb::myri {
namespace {

using namespace qmb::sim::literals;
using sim::Engine;

struct Harness {
  Engine engine;
  MyrinetConfig cfg;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<MyriNode>> nodes;

  explicit Harness(int n, MyrinetConfig config = lanaixp_cluster()) : cfg(config) {
    fabric = std::make_unique<net::Fabric>(
        engine, std::make_unique<net::SingleCrossbar>(static_cast<std::size_t>(n)),
        net::FabricParams{cfg.link, cfg.sw});
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<MyriNode>(engine, *fabric, cfg, i, nullptr));
    }
  }
  MyriNode& node(int i) { return *nodes[static_cast<std::size_t>(i)]; }
};

class FragmentationBoundary : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FragmentationBoundary, DeliversExactByteCount) {
  const std::uint32_t bytes = GetParam();
  Harness h(2);
  std::vector<RecvEvent> events;
  h.node(1).mcp().provide_receive_buffers(1);
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { events.push_back(ev); });
  h.node(0).mcp().host_send_event(1, bytes, 1, nullptr);
  h.engine.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].bytes, bytes);
  const std::uint32_t mtu = h.cfg.lanai.mtu_bytes;
  const std::uint32_t expected_frags = bytes == 0 ? 1 : (bytes + mtu - 1) / mtu;
  EXPECT_EQ(h.node(0).mcp().stats().data_packets_sent.value(), expected_frags);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FragmentationBoundary,
                         ::testing::Values(0u, 1u, 8u, 4095u, 4096u, 4097u, 8192u,
                                           8193u, 65536u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& info) {
                           // Appended, not "b" + ...: gcc 12 flags that
                           // concatenation with a false -Wrestrict.
                           std::string name = "b";
                           name += std::to_string(info.param);
                           return name;
                         });

class LossSoak : public ::testing::TestWithParam<double> {};

TEST_P(LossSoak, ManyMessagesAllDeliveredInOrder) {
  const double p = GetParam();
  Harness h(2);
  h.fabric->faults().add_random_rule(std::nullopt, std::nullopt, p, 77);
  std::vector<std::uint32_t> tags;
  h.node(1).mcp().provide_receive_buffers(256);
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { tags.push_back(ev.tag); });
  const int msgs = 60;
  for (int i = 0; i < msgs; ++i) {
    h.node(0).mcp().host_send_event(1, 512, static_cast<std::uint32_t>(i), nullptr);
  }
  h.engine.run_until(h.engine.now() + sim::seconds(10));
  ASSERT_EQ(tags.size(), static_cast<std::size_t>(msgs)) << "loss p=" << p;
  for (int i = 0; i < msgs; ++i) {
    EXPECT_EQ(tags[static_cast<std::size_t>(i)], static_cast<std::uint32_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, LossSoak, ::testing::Values(0.01, 0.05, 0.15, 0.30),
                         [](const ::testing::TestParamInfo<double>& info) {
                           std::string name = "p";
                           name += std::to_string(static_cast<int>(info.param * 100));
                           return name;
                         });

TEST(McpStress, DuplicationSoak) {
  Harness h(2);
  h.fabric->faults().add_random_rule(std::nullopt, std::nullopt, 0.2, 5,
                                     net::FaultAction::kDuplicate);
  std::vector<std::uint32_t> tags;
  h.node(1).mcp().provide_receive_buffers(128);
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { tags.push_back(ev.tag); });
  for (int i = 0; i < 40; ++i) {
    h.node(0).mcp().host_send_event(1, 256, static_cast<std::uint32_t>(i), nullptr);
  }
  h.engine.run_until(h.engine.now() + sim::seconds(10));
  // Duplicates must never surface twice to the host.
  ASSERT_EQ(tags.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(tags[static_cast<std::size_t>(i)], static_cast<std::uint32_t>(i));
  }
}

TEST(McpStress, BidirectionalLossSoak) {
  Harness h(2);
  h.fabric->faults().add_random_rule(std::nullopt, std::nullopt, 0.1, 31);
  int got0 = 0, got1 = 0;
  h.node(0).mcp().provide_receive_buffers(64);
  h.node(1).mcp().provide_receive_buffers(64);
  h.node(0).mcp().set_host_receiver([&](const RecvEvent&) { ++got0; });
  h.node(1).mcp().set_host_receiver([&](const RecvEvent&) { ++got1; });
  for (int i = 0; i < 30; ++i) {
    h.node(0).mcp().host_send_event(1, 1024, static_cast<std::uint32_t>(i), nullptr);
    h.node(1).mcp().host_send_event(0, 1024, static_cast<std::uint32_t>(i), nullptr);
  }
  h.engine.run_until(h.engine.now() + sim::seconds(10));
  EXPECT_EQ(got0, 30);
  EXPECT_EQ(got1, 30);
}

TEST(McpStress, BlackoutHealsAndTrafficResumes) {
  Harness h(2);
  // Everything 0 -> 1 is lost between 20us and 900us.
  h.fabric->faults().add_blackout(net::NicAddr(0), net::NicAddr(1),
                                  sim::SimTime(20'000'000), sim::SimTime(900'000'000));
  std::vector<std::uint32_t> tags;
  h.node(1).mcp().provide_receive_buffers(64);
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { tags.push_back(ev.tag); });
  for (int i = 0; i < 10; ++i) {
    h.node(0).mcp().host_send_event(1, 128, static_cast<std::uint32_t>(i), nullptr);
  }
  h.engine.run_until(h.engine.now() + sim::seconds(10));
  ASSERT_EQ(tags.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(tags[static_cast<std::size_t>(i)], static_cast<std::uint32_t>(i));
  }
  // Recovery happened after the blackout lifted.
  EXPECT_GT(h.engine.now().picos(), 900'000'000);
  EXPECT_GT(h.node(0).mcp().stats().retransmissions.value(), 0u);
}

TEST(McpStress, FanOutFanInUnderLoss) {
  Harness h(5);
  h.fabric->faults().add_random_rule(std::nullopt, std::nullopt, 0.05, 13);
  int received_at_0 = 0;
  std::vector<int> received(5, 0);
  for (int i = 0; i < 5; ++i) {
    h.node(i).mcp().provide_receive_buffers(64);
    h.node(i).mcp().set_host_receiver([&received, &received_at_0, i](const RecvEvent&) {
      ++received[static_cast<std::size_t>(i)];
      if (i == 0) ++received_at_0;
    });
  }
  // Node 0 scatters to everyone; everyone replies twice.
  for (int d = 1; d < 5; ++d) {
    for (int k = 0; k < 4; ++k) {
      h.node(0).mcp().host_send_event(d, 2048, static_cast<std::uint32_t>(k), nullptr);
      h.node(d).mcp().host_send_event(0, 512, static_cast<std::uint32_t>(k), nullptr);
    }
  }
  h.engine.run_until(h.engine.now() + sim::seconds(10));
  EXPECT_EQ(received_at_0, 16);
  for (int d = 1; d < 5; ++d) EXPECT_EQ(received[static_cast<std::size_t>(d)], 4);
}

TEST(McpStress, SendCompletionsSurviveLoss) {
  Harness h(2);
  h.fabric->faults().add_random_rule(std::nullopt, std::nullopt, 0.1, 99);
  int completions = 0;
  h.node(1).mcp().provide_receive_buffers(64);
  h.node(1).mcp().set_host_receiver([](const RecvEvent&) {});
  for (int i = 0; i < 25; ++i) {
    h.node(0).mcp().host_send_event(1, 4096 * 2, static_cast<std::uint32_t>(i),
                                    [&] { ++completions; });
  }
  h.engine.run_until(h.engine.now() + sim::seconds(10));
  EXPECT_EQ(completions, 25);
}

TEST(McpStress, PerChannelSequencesAreIndependent) {
  Harness h(3);
  std::vector<std::uint32_t> at1, at2;
  h.node(1).mcp().provide_receive_buffers(32);
  h.node(2).mcp().provide_receive_buffers(32);
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { at1.push_back(ev.tag); });
  h.node(2).mcp().set_host_receiver([&](const RecvEvent& ev) { at2.push_back(ev.tag); });
  // Drop traffic only on the 0->1 channel; 0->2 must be unaffected.
  h.fabric->faults().add_random_rule(net::NicAddr(0), net::NicAddr(1), 0.3, 17);
  for (int i = 0; i < 20; ++i) {
    h.node(0).mcp().host_send_event(1, 256, static_cast<std::uint32_t>(i), nullptr);
    h.node(0).mcp().host_send_event(2, 256, static_cast<std::uint32_t>(i), nullptr);
  }
  h.engine.run_until(h.engine.now() + sim::seconds(10));
  ASSERT_EQ(at1.size(), 20u);
  ASSERT_EQ(at2.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(at1[static_cast<std::size_t>(i)], static_cast<std::uint32_t>(i));
    EXPECT_EQ(at2[static_cast<std::size_t>(i)], static_cast<std::uint32_t>(i));
  }
}

}  // namespace
}  // namespace qmb::myri
