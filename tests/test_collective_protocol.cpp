// Unit tests of the NIC-resident collective protocol engine — the paper's
// primary contribution (Secs. 3 and 6).
#include "myrinet/collective.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
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

  void make_group(std::uint32_t gid, coll::Algorithm alg, CollFeatures features = {}) {
    const int n = static_cast<int>(nodes.size());
    const auto sched =
        std::make_shared<const coll::GroupSchedule>(coll::make_barrier_schedule(alg, n));
    std::vector<int> ident(static_cast<std::size_t>(n));
    std::iota(ident.begin(), ident.end(), 0);
    for (int r = 0; r < n; ++r) {
      GroupDesc d;
      d.group_id = gid;
      d.my_rank = r;
      d.rank_to_node = coll::make_placement(ident);
      d.schedule = sched;
      d.features = features;
      nodes[static_cast<std::size_t>(r)]->coll().groups().create_group(std::move(d));
    }
  }

  CollectiveEngine& coll(int i) { return nodes[static_cast<std::size_t>(i)]->coll(); }

  /// Enters all ranks at the given per-rank delays; returns completions.
  std::vector<bool> run_barrier(std::uint32_t gid, std::vector<sim::SimDuration> delays = {}) {
    const int n = static_cast<int>(nodes.size());
    std::vector<bool> done(static_cast<std::size_t>(n), false);
    for (int r = 0; r < n; ++r) {
      const auto d = delays.empty() ? sim::SimDuration::zero()
                                    : delays[static_cast<std::size_t>(r)];
      engine.schedule(d, [this, gid, r, &done] {
        coll(r).groups().collective_enter(gid, 0, [&done, r](std::int64_t) {
          done[static_cast<std::size_t>(r)] = true;
        });
      });
    }
    engine.run();
    return done;
  }
};

TEST(CollectiveEngine, BarrierCompletesAllRanks) {
  Harness h(8);
  h.make_group(1, coll::Algorithm::kDissemination);
  const auto done = h.run_barrier(1);
  for (bool d : done) EXPECT_TRUE(d);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(h.coll(r).stats().ops_completed.value(), 1u) << r;
  }
}

TEST(CollectiveEngine, NoAcksInReceiverDrivenMode) {
  Harness h(8);
  h.make_group(1, coll::Algorithm::kDissemination);
  h.run_barrier(1);
  std::uint64_t acks = 0, msgs = 0;
  for (int r = 0; r < 8; ++r) {
    acks += h.coll(r).stats().acks_sent.value();
    msgs += h.coll(r).stats().msgs_sent.value();
  }
  EXPECT_EQ(acks, 0u);
  EXPECT_EQ(msgs, 8u * 3u);  // N * log2(N) barrier messages, nothing else
  EXPECT_EQ(h.fabric->packets_sent(), 24u);
}

TEST(CollectiveEngine, AblationAcksDoublePacketCount) {
  Harness h(8);
  CollFeatures f;
  f.receiver_driven = false;
  h.make_group(1, coll::Algorithm::kDissemination, f);
  h.run_barrier(1);
  std::uint64_t acks = 0;
  for (int r = 0; r < 8; ++r) acks += h.coll(r).stats().acks_sent.value();
  EXPECT_EQ(acks, 24u);  // one ACK per barrier message
  EXPECT_EQ(h.fabric->packets_sent(), 48u);
}

TEST(CollectiveEngine, SkewedEntryStillCompletes) {
  Harness h(5);
  h.make_group(1, coll::Algorithm::kDissemination);
  std::vector<sim::SimDuration> delays;
  for (int r = 0; r < 5; ++r) delays.push_back(sim::microseconds(r * 40));
  const auto done = h.run_barrier(1, delays);
  for (bool d : done) EXPECT_TRUE(d);
  // Late host entry means messages arrived before activation.
  std::uint64_t early = 0;
  for (int r = 0; r < 5; ++r) early += h.coll(r).stats().early_buffered.value();
  EXPECT_GE(early, 1u);
}

TEST(CollectiveEngine, BarrierSafetyNobodyExitsBeforeLastEntry) {
  Harness h(6);
  h.make_group(1, coll::Algorithm::kPairwiseExchange);
  const int n = 6;
  std::vector<sim::SimTime> completed(static_cast<std::size_t>(n));
  const auto last_entry = sim::microseconds(200);
  for (int r = 0; r < n; ++r) {
    const auto d = r == n - 1 ? last_entry : sim::microseconds(r);
    h.engine.schedule(d, [&h, r, &completed] {
      h.coll(r).groups().collective_enter(1, 0, [&h, r, &completed](std::int64_t) {
        completed[static_cast<std::size_t>(r)] = h.engine.now();
      });
    });
  }
  h.engine.run();
  for (int r = 0; r < n; ++r) {
    EXPECT_GT(completed[static_cast<std::size_t>(r)].picos(), last_entry.picos()) << r;
  }
}

TEST(CollectiveEngine, DroppedBarrierMessageRecoveredByNack) {
  Harness h(4);
  h.make_group(1, coll::Algorithm::kDissemination);
  // Drop the first collective message 0 -> 1.
  h.fabric->faults().add_nth_rule(net::NicAddr(0), net::NicAddr(1), 1);
  const auto done = h.run_barrier(1);
  for (bool d : done) EXPECT_TRUE(d);
  std::uint64_t nacks_sent = 0, retrans = 0;
  for (int r = 0; r < 4; ++r) {
    nacks_sent += h.coll(r).stats().nacks_sent.value();
    retrans += h.coll(r).stats().retransmissions.value();
  }
  EXPECT_GE(nacks_sent, 1u);
  EXPECT_GE(retrans, 1u);
  // Recovery needed at least one NACK timeout.
  EXPECT_GE(h.engine.now().picos(), h.cfg.lanai.nack_timeout.picos());
}

TEST(CollectiveEngine, MultipleDropsRecovered) {
  Harness h(8);
  h.make_group(1, coll::Algorithm::kDissemination);
  h.fabric->faults().add_nth_rule(net::NicAddr(0), net::NicAddr(1), 1);
  h.fabric->faults().add_nth_rule(net::NicAddr(3), net::NicAddr(5), 1);
  h.fabric->faults().add_nth_rule(net::NicAddr(7), std::nullopt, 2);
  const auto done = h.run_barrier(1);
  for (bool d : done) EXPECT_TRUE(d);
}

TEST(CollectiveEngine, DuplicateDeliveryIgnored) {
  Harness h(4);
  h.make_group(1, coll::Algorithm::kDissemination);
  h.fabric->faults().add_nth_rule(net::NicAddr(0), net::NicAddr(1), 1,
                                  net::FaultAction::kDuplicate);
  const auto done = h.run_barrier(1);
  for (bool d : done) EXPECT_TRUE(d);
  std::uint64_t dups = 0;
  for (int r = 0; r < 4; ++r) dups += h.coll(r).stats().duplicates.value();
  EXPECT_GE(dups, 1u);
}

TEST(CollectiveEngine, TwoGroupsCoexist) {
  Harness h(4);
  h.make_group(1, coll::Algorithm::kDissemination);
  h.make_group(2, coll::Algorithm::kPairwiseExchange);
  int done = 0;
  for (int r = 0; r < 4; ++r) {
    h.coll(r).groups().collective_enter(1, 0, [&](std::int64_t) { ++done; });
    h.coll(r).groups().collective_enter(2, 0, [&](std::int64_t) { ++done; });
  }
  h.engine.run();
  EXPECT_EQ(done, 8);
}

TEST(CollectiveEngine, AblationFeatureCostsOrdering) {
  // Disabling protocol features must not change correctness but must slow
  // the barrier down.
  auto timed = [](CollFeatures f) {
    Harness h(8);
    h.make_group(1, coll::Algorithm::kDissemination, f);
    h.run_barrier(1);
    return h.engine.now();
  };
  const auto full = timed(CollFeatures{});
  CollFeatures no_queue;
  no_queue.dedicated_queue = false;
  CollFeatures no_static;
  no_static.static_packet = false;
  CollFeatures no_bitvec;
  no_bitvec.bitvector_record = false;
  CollFeatures none;
  none.dedicated_queue = none.static_packet = none.bitvector_record = false;
  none.receiver_driven = false;
  EXPECT_LT(full.picos(), timed(no_queue).picos());
  EXPECT_LT(full.picos(), timed(no_static).picos());
  EXPECT_LT(full.picos(), timed(no_bitvec).picos());
  EXPECT_LT(timed(no_queue).picos(), timed(none).picos());
}

TEST(CollectiveEngine, PacketsCarryMinimalWireSize) {
  Harness h(2);
  h.make_group(1, coll::Algorithm::kDissemination);
  h.run_barrier(1);
  // 2 messages of (header + 8B integer) each.
  EXPECT_EQ(h.fabric->bytes_sent(),
            2u * (h.cfg.lanai.header_bytes + 8u));
}

}  // namespace
}  // namespace qmb::myri
