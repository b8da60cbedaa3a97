#include "myrinet/gm.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/topology.hpp"

namespace qmb::myri {
namespace {

using namespace qmb::sim::literals;
using sim::Engine;
using sim::SimTime;

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
  GmPort& port(int i) { return nodes[static_cast<std::size_t>(i)]->port(); }
};

TEST(GmPort, RoundTripThroughHostApi) {
  Harness h(2);
  std::vector<RecvEvent> events;
  h.port(1).provide_receive_buffers(1);
  h.port(1).inbox().set_receive_handler([&](const RecvEvent& ev) { events.push_back(ev); });
  h.port(0).send(1, 256, 42);
  h.engine.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tag, 42u);
}

TEST(GmPort, LatencyIncludesHostCosts) {
  Harness h(2);
  SimTime received;
  h.port(1).provide_receive_buffers(1);
  h.port(1).inbox().set_receive_handler([&](const RecvEvent&) { received = h.engine.now(); });
  h.port(0).send(1, 8, 1);
  h.engine.run();
  // Must be at least host post + PIO + wire + recv detect; a pure-fabric
  // delivery would be far cheaper.
  const auto fabric_only = h.fabric->unloaded_latency(net::NicAddr(0), net::NicAddr(1), 24);
  EXPECT_GT((received - SimTime::zero()).picos(), fabric_only.picos() * 2);
}

TEST(GmPort, SendCompletionCallbackOnHost) {
  Harness h(2);
  bool completed = false;
  h.port(1).provide_receive_buffers(1);
  h.port(1).inbox().set_receive_handler([](const RecvEvent&) {});
  h.port(0).send(1, 64, 1, [&] { completed = true; });
  h.engine.run();
  EXPECT_TRUE(completed);
}

TEST(GmPort, LatencyGrowsWithMessageSize) {
  auto one_way = [](std::uint32_t bytes) {
    Harness h(2);
    SimTime received;
    h.port(1).provide_receive_buffers(1);
    h.port(1).inbox().set_receive_handler([&](const RecvEvent&) { received = h.engine.now(); });
    h.port(0).send(1, bytes, 1);
    h.engine.run();
    return received;
  };
  const SimTime small = one_way(8);
  const SimTime large = one_way(64 * 1024);
  EXPECT_GT(large.picos(), small.picos() + 50'000'000);  // >> 50us more for 64KB
}

TEST(GmPort, SmallMessageLatencyInGmBallpark) {
  // GM-2 on LANai-XP measured ~6-8us one-way for small messages; the model
  // should land in single-digit microseconds, not 1us or 100us.
  Harness h(2);
  SimTime received;
  h.port(1).provide_receive_buffers(1);
  h.port(1).inbox().set_receive_handler([&](const RecvEvent&) { received = h.engine.now(); });
  h.port(0).send(1, 8, 1);
  h.engine.run();
  EXPECT_GT(received.micros(), 3.0);
  EXPECT_LT(received.micros(), 15.0);
}

TEST(GmPort, ConcurrentBidirectionalTraffic) {
  Harness h(2);
  int got0 = 0, got1 = 0;
  h.port(0).provide_receive_buffers(10);
  h.port(1).provide_receive_buffers(10);
  h.port(0).inbox().set_receive_handler([&](const RecvEvent&) { ++got0; });
  h.port(1).inbox().set_receive_handler([&](const RecvEvent&) { ++got1; });
  for (std::uint32_t i = 0; i < 10; ++i) {
    h.port(0).send(1, 128, i);
    h.port(1).send(0, 128, i);
  }
  h.engine.run();
  EXPECT_EQ(got0, 10);
  EXPECT_EQ(got1, 10);
}

TEST(GmPort, ManyToOneIncast) {
  Harness h(5);
  int got = 0;
  h.port(0).provide_receive_buffers(4 * 8);
  h.port(0).inbox().set_receive_handler([&](const RecvEvent&) { ++got; });
  for (int src = 1; src < 5; ++src) {
    for (std::uint32_t i = 0; i < 8; ++i) h.port(src).send(0, 256, i);
  }
  h.engine.run();
  EXPECT_EQ(got, 32);
}

}  // namespace
}  // namespace qmb::myri
