#include "myrinet/mcp.hpp"

#include <gtest/gtest.h>

#include <memory>
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

  explicit Harness(int n, MyrinetConfig config = lanaixp_cluster())
      : cfg(config) {
    fabric = std::make_unique<net::Fabric>(
        engine, std::make_unique<net::SingleCrossbar>(static_cast<std::size_t>(n)),
        net::FabricParams{cfg.link, cfg.sw});
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<MyriNode>(engine, *fabric, cfg, i, nullptr));
    }
  }

  MyriNode& node(int i) { return *nodes[static_cast<std::size_t>(i)]; }
};

TEST(Mcp, HostSendDeliversReceiveEvent) {
  Harness h(2);
  std::vector<RecvEvent> events;
  h.node(1).mcp().provide_receive_buffers(1);
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { events.push_back(ev); });
  h.node(0).mcp().host_send_event(1, 1024, 7, nullptr);
  h.engine.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].src_node, 0);
  EXPECT_EQ(events[0].tag, 7u);
  EXPECT_EQ(events[0].bytes, 1024u);
}

TEST(Mcp, SendCompletionReportedAfterAck) {
  Harness h(2);
  bool sent = false;
  h.node(1).mcp().provide_receive_buffers(1);
  h.node(1).mcp().set_host_receiver([](const RecvEvent&) {});
  h.node(0).mcp().host_send_event(1, 64, 1, [&] { sent = true; });
  h.engine.run();
  EXPECT_TRUE(sent);
  EXPECT_EQ(h.node(0).mcp().stats().tokens_completed.value(), 1u);
  EXPECT_EQ(h.node(0).mcp().free_send_buffers(),
            static_cast<int>(h.cfg.lanai.send_packet_pool));
}

TEST(Mcp, LargeMessageFragmentsAndReassembles) {
  Harness h(2);
  std::vector<RecvEvent> events;
  h.node(1).mcp().provide_receive_buffers(1);
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { events.push_back(ev); });
  const std::uint32_t bytes = 3 * h.cfg.lanai.mtu_bytes + 100;
  h.node(0).mcp().host_send_event(1, bytes, 9, nullptr);
  h.engine.run();
  ASSERT_EQ(events.size(), 1u);  // one event for the whole message
  EXPECT_EQ(events[0].bytes, bytes);
  EXPECT_EQ(h.node(0).mcp().stats().data_packets_sent.value(), 4u);
  EXPECT_EQ(h.node(1).mcp().stats().acks_sent.value(), 4u);
}

TEST(Mcp, InOrderDeliveryOfBackToBackSends) {
  Harness h(2);
  std::vector<std::uint32_t> tags;
  h.node(1).mcp().provide_receive_buffers(8);
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { tags.push_back(ev.tag); });
  for (std::uint32_t t = 0; t < 5; ++t) {
    h.node(0).mcp().host_send_event(1, 64, t, nullptr);
  }
  h.engine.run();
  EXPECT_EQ(tags, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(Mcp, DataDropRecoveredBySenderTimeout) {
  Harness h(2);
  std::vector<RecvEvent> events;
  h.node(1).mcp().provide_receive_buffers(1);
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { events.push_back(ev); });
  // Drop the first data packet 0 -> 1.
  h.fabric->faults().install({.src = 0, .dst = 1, .nth = 1});
  bool sent = false;
  h.node(0).mcp().host_send_event(1, 64, 3, [&] { sent = true; });
  h.engine.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(sent);
  EXPECT_GE(h.node(0).mcp().stats().retransmissions.value(), 1u);
  // Recovery costs at least one ACK timeout.
  EXPECT_GE(h.engine.now().picos(), h.cfg.lanai.ack_timeout.picos());
}

TEST(Mcp, AckDropTriggersDuplicateReAck) {
  Harness h(2);
  h.node(1).mcp().provide_receive_buffers(1);
  h.node(1).mcp().set_host_receiver([](const RecvEvent&) {});
  // Drop the first packet 1 -> 0: that is the ACK for our data packet.
  h.fabric->faults().install({.src = 1, .dst = 0, .nth = 1});
  bool sent = false;
  h.node(0).mcp().host_send_event(1, 64, 3, [&] { sent = true; });
  h.engine.run();
  EXPECT_TRUE(sent);
  EXPECT_GE(h.node(0).mcp().stats().retransmissions.value(), 1u);
  EXPECT_GE(h.node(1).mcp().stats().dup_acked.value(), 1u);
}

TEST(Mcp, NoReceiveBufferDropsThenRecovers) {
  Harness h(2);
  std::vector<RecvEvent> events;
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { events.push_back(ev); });
  h.node(0).mcp().host_send_event(1, 64, 5, nullptr);
  // Host posts the buffer only after the first delivery attempt failed.
  h.engine.schedule(50_us, [&] { h.node(1).mcp().provide_receive_buffers(1); });
  h.engine.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GE(h.node(1).mcp().stats().drops_no_token.value(), 1u);
  EXPECT_GE(h.node(0).mcp().stats().retransmissions.value(), 1u);
}

TEST(Mcp, DuplicatedPacketConsumedOnce) {
  Harness h(2);
  std::vector<RecvEvent> events;
  h.node(1).mcp().provide_receive_buffers(4);
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { events.push_back(ev); });
  h.fabric->faults().install(
      {.src = 0, .dst = 1, .action = net::FaultAction::kDuplicate, .nth = 1});
  h.node(0).mcp().host_send_event(1, 64, 5, nullptr);
  h.engine.run();
  EXPECT_EQ(events.size(), 1u);
  EXPECT_GE(h.node(1).mcp().stats().dup_acked.value(), 1u);
}

TEST(Mcp, PoolExhaustionStallsThenDrains) {
  // A single-buffer pool forces every fragment to wait for the previous
  // fragment's ACK, so the send engine must stall and resume.
  MyrinetConfig cfg = lanaixp_cluster();
  cfg.lanai.send_packet_pool = 1;
  Harness h(2, cfg);
  std::vector<RecvEvent> events;
  h.node(1).mcp().provide_receive_buffers(64);
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { events.push_back(ev); });
  const int msgs = static_cast<int>(h.cfg.lanai.send_packet_pool) * 3;
  for (int i = 0; i < msgs; ++i) {
    h.node(0).mcp().host_send_event(1, h.cfg.lanai.mtu_bytes, static_cast<std::uint32_t>(i),
                                    nullptr);
  }
  h.engine.run();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(msgs));
  EXPECT_GE(h.node(0).mcp().stats().buffer_stalls.value(), 1u);
  EXPECT_EQ(h.node(0).mcp().free_send_buffers(),
            static_cast<int>(h.cfg.lanai.send_packet_pool));
}

TEST(Mcp, RoundRobinServesMultipleDestinations) {
  Harness h(3);
  std::vector<RecvEvent> at1, at2;
  h.node(1).mcp().provide_receive_buffers(8);
  h.node(2).mcp().provide_receive_buffers(8);
  h.node(1).mcp().set_host_receiver([&](const RecvEvent& ev) { at1.push_back(ev); });
  h.node(2).mcp().set_host_receiver([&](const RecvEvent& ev) { at2.push_back(ev); });
  for (std::uint32_t i = 0; i < 4; ++i) {
    h.node(0).mcp().host_send_event(1, 64, i, nullptr);
    h.node(0).mcp().host_send_event(2, 64, i, nullptr);
  }
  h.engine.run();
  EXPECT_EQ(at1.size(), 4u);
  EXPECT_EQ(at2.size(), 4u);
}

TEST(Mcp, NicSendBypassesHostAndFeedsConsumer) {
  Harness h(2);
  std::vector<RecvEvent> consumed;
  h.node(1).mcp().set_nic_consumer([&](const RecvEvent& ev) { consumed.push_back(ev); });
  h.node(0).mcp().nic_send(1, 0x77, 1234);
  h.engine.run();
  ASSERT_EQ(consumed.size(), 1u);
  EXPECT_EQ(consumed[0].src_node, 0);
  EXPECT_EQ(consumed[0].tag, 0x77u);
  EXPECT_EQ(consumed[0].value, 1234);
  // NIC-sourced messages never touch the host DMA path.
  EXPECT_EQ(h.node(1).pci().dmas(), 0u);
  // But they are still ACKed: the direct scheme keeps p2p reliability.
  EXPECT_EQ(h.node(1).mcp().stats().acks_sent.value(), 1u);
}

TEST(Mcp, NicSendDropRecovered) {
  Harness h(2);
  std::vector<RecvEvent> consumed;
  h.node(1).mcp().set_nic_consumer([&](const RecvEvent& ev) { consumed.push_back(ev); });
  h.fabric->faults().install({.src = 0, .dst = 1, .nth = 1});
  h.node(0).mcp().nic_send(1, 5, 0);
  h.engine.run();
  EXPECT_EQ(consumed.size(), 1u);
  EXPECT_GE(h.node(0).mcp().stats().retransmissions.value(), 1u);
}

TEST(Mcp, HostSendPaysPciDataCrossings) {
  Harness h(2);
  h.node(1).mcp().provide_receive_buffers(1);
  h.node(1).mcp().set_host_receiver([](const RecvEvent&) {});
  h.node(0).mcp().host_send_event(1, 1024, 1, nullptr);
  h.engine.run();
  // Sender: SDMA of the payload. Receiver: payload DMA + event DMA.
  EXPECT_GE(h.node(0).pci().dmas(), 1u);
  EXPECT_GE(h.node(1).pci().dmas(), 2u);
  EXPECT_GE(h.node(0).pci().dma_bytes(), 1024u);
}

}  // namespace
}  // namespace qmb::myri
