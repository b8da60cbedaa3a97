// Unit tests of the Elan3 NIC model: RDMA timing, event dispatch and value
// semantics at NIC level (test_nic_group_engine.cpp checks the group
// engine's window on every substrate).
#include "quadrics/nic.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "quadrics/fabric.hpp"

namespace qmb::elan {
namespace {

using namespace qmb::sim::literals;
using sim::Engine;
using sim::SimTime;

struct Harness {
  Engine engine;
  Elan3Config cfg;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<Nic>> nics;

  explicit Harness(int n) : cfg(elan3_cluster()) {
    fabric = make_elan_fabric(engine, cfg, static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      nics.push_back(std::make_unique<Nic>(engine, *fabric, cfg, i, nullptr));
    }
  }

  void make_group(std::uint32_t gid, coll::OpKind kind, coll::Algorithm alg,
                  coll::ReduceOp op = coll::ReduceOp::kSum) {
    const int n = static_cast<int>(nics.size());
    const auto sched = std::make_shared<const coll::GroupSchedule>(
        coll::make_collective_schedule(kind, n, 0, alg));
    std::vector<int> ident(static_cast<std::size_t>(n));
    std::iota(ident.begin(), ident.end(), 0);
    for (int r = 0; r < n; ++r) {
      coll::GroupDesc d;
      d.group_id = gid;
      d.my_rank = r;
      d.rank_to_node = coll::make_placement(ident);
      d.schedule = sched;
      d.op_kind = kind;
      d.reduce_op = op;
      nics[static_cast<std::size_t>(r)]->groups().create_group(std::move(d));
    }
  }
};

TEST(ElanNic, RdmaPutFiresRemoteHostEvent) {
  Harness h(2);
  int notified = 0;
  h.nics[1]->set_host_msg_handler([&](const coll::HostMsg& r) {
    EXPECT_EQ(r.tag, 9u);
    EXPECT_EQ(r.value, 1234);
    ++notified;
  });
  ElanRdma body;
  body.ev_class = ElanRdma::EventClass::kHostMsg;
  body.tag = 9;
  body.value = 1234;
  h.nics[0]->rdma_put(1, 8, body);
  h.engine.run();
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(h.nics[0]->stats().rdma_issued.value(), 1u);
  EXPECT_EQ(h.nics[1]->stats().events_fired.value(), 1u);
  EXPECT_EQ(h.nics[1]->stats().host_notifies.value(), 1u);
}

TEST(ElanNic, RdmaTimingIncludesIssueWireAndEvent) {
  Harness h(2);
  SimTime arrived;
  h.nics[1]->set_host_msg_handler([&](const coll::HostMsg&) { arrived = h.engine.now(); });
  ElanRdma body;
  body.ev_class = ElanRdma::EventClass::kHostMsg;
  h.nics[0]->rdma_put(1, 0, body);
  h.engine.run();
  const auto floor = h.cfg.rdma_issue + h.cfg.event_fire + h.cfg.host_notify_dma;
  EXPECT_GT(arrived.picos(), floor.picos());
  EXPECT_LT(arrived.micros(), 5.0);
}

TEST(ElanNic, BarrierOpsSerializeOnTheUnit) {
  // Two puts issued back-to-back share the DMA engine: the second's issue
  // waits for the first.
  Harness h(3);
  std::vector<SimTime> arrivals;
  for (int i = 1; i <= 2; ++i) {
    h.nics[static_cast<std::size_t>(i)]->set_host_msg_handler(
        [&](const coll::HostMsg&) { arrivals.push_back(h.engine.now()); });
  }
  for (int dst = 1; dst <= 2; ++dst) {
    ElanRdma body;
    body.ev_class = ElanRdma::EventClass::kHostMsg;
    h.nics[0]->rdma_put(dst, 0, body);
  }
  h.engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE((arrivals[1] - arrivals[0]).picos(), h.cfg.rdma_issue.picos());
}

TEST(ElanNic, ChainedAllreduceComputesAtNicLevel) {
  Harness h(4);
  h.make_group(1, coll::OpKind::kAllreduce, coll::Algorithm::kPairwiseExchange);
  std::vector<std::int64_t> results(4, -1);
  for (int r = 0; r < 4; ++r) {
    h.nics[static_cast<std::size_t>(r)]->groups().collective_enter(
        1, 10 + r, [&results, r](std::int64_t v) { results[static_cast<std::size_t>(r)] = v; });
  }
  h.engine.run();
  for (int r = 0; r < 4; ++r) EXPECT_EQ(results[static_cast<std::size_t>(r)], 46);
}

TEST(ElanNic, TsetFlagRoundsAreMonotone) {
  Harness h(2);
  h.nics[0]->set_tset_flag(3);
  EXPECT_TRUE(h.nics[0]->tset_flag_at_least(2));
  EXPECT_TRUE(h.nics[0]->tset_flag_at_least(3));
  EXPECT_FALSE(h.nics[0]->tset_flag_at_least(4));
}

TEST(ElanNic, ValuePayloadGrowsWireBytes) {
  // An allreduce message carries one word; wire bytes = header + 8.
  Harness h(2);
  h.make_group(1, coll::OpKind::kAllreduce, coll::Algorithm::kPairwiseExchange);
  for (int r = 0; r < 2; ++r) {
    h.nics[static_cast<std::size_t>(r)]->groups().collective_enter(1, r, [](std::int64_t) {});
  }
  h.engine.run();
  EXPECT_EQ(h.fabric->bytes_sent(), 2u * (h.cfg.header_bytes + 8));
}

}  // namespace
}  // namespace qmb::elan
