// Quadrics substrate and barrier tests (paper Secs. 4.1, 7, 8.2).
#include "core/collectives.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cluster.hpp"

namespace qmb::core {
namespace {

using namespace qmb::sim::literals;
using sim::Engine;
using sim::SimTime;

TEST(ElanPut, TaggedPutReachesRemoteHost) {
  Engine engine;
  ElanCluster cluster(engine, elan::elan3_cluster(), 4);
  int got_src = -1;
  std::uint32_t got_tag = 0;
  cluster.node(2).inbox().set_receive_handler([&](const coll::HostMsg& m) {
    got_src = m.src_node;
    got_tag = m.tag;
  });
  cluster.node(0).put(2, 8, 77);
  engine.run();
  EXPECT_EQ(got_src, 0);
  EXPECT_EQ(got_tag, 77u);
}

TEST(ElanPut, LatencyIsMicrosecondScale) {
  Engine engine;
  ElanCluster cluster(engine, elan::elan3_cluster(), 8);
  SimTime received;
  cluster.node(7).inbox().set_receive_handler([&](const coll::HostMsg&) { received = engine.now(); });
  cluster.node(0).put(7, 8, 1);
  engine.run();
  // QsNet/Elan3 small put+event one-way was ~2-5us.
  EXPECT_GT(received.micros(), 1.0);
  EXPECT_LT(received.micros(), 8.0);
}

TEST(ElanNicBarrier, CompletesForAllRanks) {
  Engine engine;
  ElanCluster cluster(engine, elan::elan3_cluster(), 8);
  auto barrier = make_collective(cluster, {});
  const auto result = run_consecutive(engine, *barrier, {.warmup = 2, .iters = 10});
  EXPECT_EQ(result.iterations, 10u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cluster.node(i).nic().stats().ops_completed.value(), 12u);
  }
}

TEST(ElanNicBarrier, BarrierSafetyWithStraggler) {
  Engine engine;
  ElanCluster cluster(engine, elan::elan3_cluster(), 7);
  auto barrier = make_collective(cluster, {.algorithm = coll::Algorithm::kPairwiseExchange});
  const auto straggle = sim::microseconds(100);
  std::vector<SimTime> completed(7);
  for (int r = 0; r < 7; ++r) {
    engine.schedule(r == 3 ? straggle : sim::SimDuration::zero(), [&, r] {
      barrier->enter(r, 0, [&, r](std::int64_t) {
        completed[static_cast<std::size_t>(r)] = engine.now();
      });
    });
  }
  engine.run();
  for (int r = 0; r < 7; ++r) {
    EXPECT_GT(completed[static_cast<std::size_t>(r)].picos(), straggle.picos()) << r;
  }
}

TEST(ElanNicBarrier, ZeroByteRdmaOnTheWire) {
  Engine engine;
  ElanCluster cluster(engine, elan::elan3_cluster(), 2);
  auto barrier = make_collective(cluster, {});
  run_consecutive(engine, *barrier, {.warmup = 0, .iters = 1});
  // Two barrier messages, each a header-only RDMA (no payload).
  EXPECT_EQ(cluster.fabric().packets_sent(), 2u);
  EXPECT_EQ(cluster.fabric().bytes_sent(), 2u * cluster.config().header_bytes);
}

TEST(ElanGsyncBarrier, CompletesAndIsSlowerThanNic) {
  Engine eg, en;
  ElanCluster cg(eg, elan::elan3_cluster(), 8);
  ElanCluster cn(en, elan::elan3_cluster(), 8);
  auto gsync = make_gsync_barrier(cg);
  auto nic = make_collective(cn, {});
  const auto rg = run_consecutive(eg, *gsync, {.warmup = 5, .iters = 30});
  const auto rn = run_consecutive(en, *nic, {.warmup = 5, .iters = 30});
  const double factor = rg.mean.micros() / rn.mean.micros();
  EXPECT_GT(factor, 1.5);  // paper: 2.48x at 8 nodes
  EXPECT_LT(factor, 5.0);
}

TEST(ElanHwBarrier, CompletesAllRanks) {
  Engine engine;
  ElanCluster cluster(engine, elan::elan3_cluster(), 8);
  auto barrier = make_hgsync_barrier(cluster);
  const auto result = run_consecutive(engine, *barrier, {.warmup = 2, .iters = 10});
  EXPECT_EQ(result.iterations, 10u);
  EXPECT_EQ(cluster.hw_barrier().rounds_completed(), 12u);
}

TEST(ElanHwBarrier, LatencyIndependentOfNodeCount) {
  auto mean_at = [](int n) {
    Engine e;
    ElanCluster c(e, elan::elan3_cluster(), n);
    auto b = make_hgsync_barrier(c);
    return run_consecutive(e, *b, {.warmup = 5, .iters = 20}).mean.micros();
  };
  const double at2 = mean_at(2);
  const double at8 = mean_at(8);
  const double at16 = mean_at(16);
  // Flat within a microsecond across an 8x node range (Fig. 7's flat line).
  EXPECT_LT(std::abs(at16 - at2), 1.0);
  EXPECT_LT(std::abs(at8 - at2), 1.0);
}

TEST(ElanHwBarrier, SynchronizedProcessesNeedNoRetries) {
  Engine engine;
  ElanCluster cluster(engine, elan::elan3_cluster(), 8);
  auto barrier = make_hgsync_barrier(cluster);
  run_consecutive(engine, *barrier, {.warmup = 0, .iters = 20});
  EXPECT_EQ(cluster.hw_barrier().failed_probes(), 0u);
}

TEST(ElanHwBarrier, StragglerForcesProbeRetries) {
  Engine engine;
  ElanCluster cluster(engine, elan::elan3_cluster(), 4);
  auto barrier = make_hgsync_barrier(cluster);
  std::vector<SimTime> completed(4);
  const auto straggle = sim::microseconds(50);  // >> retry backoff of 2us
  for (int r = 0; r < 4; ++r) {
    engine.schedule(r == 2 ? straggle : sim::SimDuration::zero(), [&, r] {
      barrier->enter(r, 0, [&, r](std::int64_t) {
        completed[static_cast<std::size_t>(r)] = engine.now();
      });
    });
  }
  engine.run();
  EXPECT_GE(cluster.hw_barrier().failed_probes(), 1u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(completed[static_cast<std::size_t>(r)].picos(), straggle.picos());
  }
}

TEST(ElanHwBarrier, CrossoverWithNicBarrier) {
  // Fig. 7: the NIC-based barrier beats the hardware barrier at small N;
  // the hardware barrier's flat latency wins as N grows.
  auto nic_mean = [](int n) {
    Engine e;
    ElanCluster c(e, elan::elan3_cluster(), n);
    auto b = make_collective(c, {});
    return run_consecutive(e, *b, {.warmup = 5, .iters = 20}).mean.micros();
  };
  auto hw_mean = [](int n) {
    Engine e;
    ElanCluster c(e, elan::elan3_cluster(), n);
    auto b = make_hgsync_barrier(c);
    return run_consecutive(e, *b, {.warmup = 5, .iters = 20}).mean.micros();
  };
  EXPECT_LT(nic_mean(2), hw_mean(2));    // NIC wins small
  EXPECT_GT(nic_mean(16), hw_mean(16));  // hardware wins large
}

TEST(ElanNicBarrier, PairwiseExchangeCompetitiveAtNonPowerOfTwo) {
  // Paper Sec. 8.2: Quadrics copes well with hot-spot RDMA, so PE stays
  // competitive with DS at non-powers of two (within ~60%).
  Engine ep, ed;
  ElanCluster cp(ep, elan::elan3_cluster(), 6);
  ElanCluster cd(ed, elan::elan3_cluster(), 6);
  auto pe = make_collective(cp, {.algorithm = coll::Algorithm::kPairwiseExchange});
  auto ds = make_collective(cd, {});
  const auto rpe = run_consecutive(ep, *pe, {.warmup = 5, .iters = 20});
  const auto rds = run_consecutive(ed, *ds, {.warmup = 5, .iters = 20});
  EXPECT_LT(rpe.mean.micros(), rds.mean.micros() * 1.6);
}

TEST(ElanCluster, HgsyncWithoutControllerThrows) {
  Engine engine;
  auto fabric = elan::make_elan_fabric(engine, elan::elan3_cluster(), 2);
  elan::Elan3Config cfg = elan::elan3_cluster();
  elan::ElanNode lone(engine, *fabric, cfg, 0, nullptr);
  EXPECT_THROW(lone.hgsync_enter([] {}), std::logic_error);
}

}  // namespace
}  // namespace qmb::core
