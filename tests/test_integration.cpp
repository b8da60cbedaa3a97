// Cross-module integration tests: determinism, paper-shaped results,
// model-vs-simulation agreement, and barriers under competing traffic.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "core/collectives.hpp"
#include "model/analytic.hpp"

namespace qmb::core {
namespace {

using sim::Engine;

double nic_ds_mean_us(const myri::MyrinetConfig& cfg, int n, int warmup = 10,
                      int iters = 50) {
  Engine e;
  MyriCluster c(e, cfg, n);
  auto b = make_collective(c, {});
  return run_consecutive(e, *b, {.warmup = warmup, .iters = iters}).mean.micros();
}

double host_ds_mean_us(const myri::MyrinetConfig& cfg, int n) {
  Engine e;
  MyriCluster c(e, cfg, n);
  auto b = make_collective(c, {.engine = coll::Engine::kHost});
  return run_consecutive(e, *b, {.warmup = 10, .iters = 50}).mean.micros();
}

TEST(Determinism, IdenticalRunsProduceIdenticalLatencies) {
  const double a = nic_ds_mean_us(myri::lanaixp_cluster(), 8);
  const double b = nic_ds_mean_us(myri::lanaixp_cluster(), 8);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Determinism, SteadyStateIsNoiseless) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 8);
  auto b = make_collective(c, {});
  const auto r = run_consecutive(e, *b, {.warmup = 10, .iters = 100});
  // A deterministic pipeline of identical barriers has identical iteration
  // latencies (the paper saw "negligible variations").
  EXPECT_EQ(r.per_iteration.min(), r.per_iteration.max());
}

TEST(PaperShape, XeonXpHeadlineBallpark) {
  // Paper Fig. 6 anchors: NIC-based 14.20us at 8 nodes, 2.64x over host.
  const double nic = nic_ds_mean_us(myri::lanaixp_cluster(), 8);
  const double host = host_ds_mean_us(myri::lanaixp_cluster(), 8);
  EXPECT_GT(nic, 14.20 * 0.7);
  EXPECT_LT(nic, 14.20 * 1.3);
  const double factor = host / nic;
  EXPECT_GT(factor, 2.64 * 0.75);
  EXPECT_LT(factor, 2.64 * 1.35);
}

TEST(PaperShape, Lanai9HeadlineBallpark) {
  // Paper Fig. 5 anchors: NIC-based 25.72us at 16 nodes, 3.38x over host.
  const double nic = nic_ds_mean_us(myri::lanai9_cluster(), 16);
  const double host = host_ds_mean_us(myri::lanai9_cluster(), 16);
  EXPECT_GT(nic, 25.72 * 0.7);
  EXPECT_LT(nic, 25.72 * 1.3);
  const double factor = host / nic;
  EXPECT_GT(factor, 3.38 * 0.7);
  EXPECT_LT(factor, 3.38 * 1.4);
}

TEST(PaperShape, FasterHostShrinksImprovementFactor) {
  // Sec. 8.1: the XP cluster's faster hosts/bus shrink the NIC advantage.
  const double f_l9 = host_ds_mean_us(myri::lanai9_cluster(), 8) /
                      nic_ds_mean_us(myri::lanai9_cluster(), 8);
  const double f_xp = host_ds_mean_us(myri::lanaixp_cluster(), 8) /
                      nic_ds_mean_us(myri::lanaixp_cluster(), 8);
  EXPECT_GT(f_l9, f_xp);
}

TEST(ModelVsSimulation, FitFromSmallNPredictsLargeN) {
  // Fig. 8 methodology: fit the model on small clusters, check it tracks
  // the simulation at larger N.
  std::vector<model::MeasuredPoint> pts;
  for (int n : {2, 4, 8, 16}) {
    pts.push_back({n, nic_ds_mean_us(myri::lanaixp_cluster(), n, 5, 20)});
  }
  const auto [intercept, slope] = model::fit_intercept_slope(pts);
  const model::BarrierModel m = model::model_from_fit(intercept, slope, intercept / 2);
  for (int n : {32, 64}) {
    const double sim_us = nic_ds_mean_us(myri::lanaixp_cluster(), n, 5, 20);
    const double model_us = m.latency_us(n);
    EXPECT_NEAR(model_us, sim_us, 0.25 * sim_us) << "n=" << n;
  }
}

TEST(Concurrency, BarrierCorrectUnderCompetingTraffic) {
  // Barrier while another pair exchanges bulk point-to-point messages; the
  // barrier must stay correct (and the traffic must all arrive).
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 8);
  auto b = make_collective(c, {});

  int received = 0;
  c.node(5).port().provide_receive_buffers(64);
  c.node(5).port().inbox().set_receive_handler([&](const myri::RecvEvent&) { ++received; });
  for (int i = 0; i < 20; ++i) {
    c.node(4).port().send(5, 4096, static_cast<std::uint32_t>(i));
  }
  const auto r = run_consecutive(e, *b, {.warmup = 2, .iters = 10});
  EXPECT_EQ(r.iterations, 10u);
  EXPECT_EQ(received, 20);
}

TEST(Concurrency, CompetingTrafficSlowsTheBarrier) {
  // The NICs of ranks 4 and 5 are busy with bulk traffic; firmware
  // occupancy must inflate barrier latency relative to an idle cluster.
  auto barrier_mean = [](bool with_traffic) {
    Engine e;
    MyriCluster c(e, myri::lanaixp_cluster(), 8);
    auto b = make_collective(c, {});
    if (with_traffic) {
      c.node(5).port().provide_receive_buffers(512);
      c.node(5).port().inbox().set_receive_handler([](const myri::RecvEvent&) {});
      for (int i = 0; i < 400; ++i) {
        c.node(4).port().send(5, 4096, static_cast<std::uint32_t>(i));
      }
    }
    return run_consecutive(e, *b, {.warmup = 2, .iters = 10}).mean.micros();
  };
  EXPECT_GT(barrier_mean(true), barrier_mean(false));
}

TEST(Scalability, MyrinetClusterBeyondOneSwitch) {
  // 64 nodes forces the Clos topology; the barrier still works and grows
  // logarithmically.
  const double at64 = nic_ds_mean_us(myri::lanaixp_cluster(), 64, 3, 10);
  const double at16 = nic_ds_mean_us(myri::lanaixp_cluster(), 16, 3, 10);
  EXPECT_GT(at64, at16);
  EXPECT_LT(at64, at16 * 2.5);
}

TEST(Scalability, QuadricsClusterGrows) {
  auto elan_mean = [](int n) {
    Engine e;
    ElanCluster c(e, elan::elan3_cluster(), n);
    auto b = make_collective(c, {});
    return run_consecutive(e, *b, {.warmup = 3, .iters = 10}).mean.micros();
  };
  const double at8 = elan_mean(8);
  const double at64 = elan_mean(64);
  EXPECT_GT(at64, at8);
  EXPECT_LT(at64, at8 * 3.0);
}

TEST(PaperShape, QuadricsHeadlineBallpark) {
  // Fig. 7 anchors: NIC barrier 5.60us at 8 nodes; 2.48x over tree gsync.
  Engine en, eg;
  ElanCluster cn(en, elan::elan3_cluster(), 8);
  ElanCluster cg(eg, elan::elan3_cluster(), 8);
  auto nic = make_collective(cn, {});
  auto gsync = make_gsync_barrier(cg);
  const double nic_us = run_consecutive(en, *nic, {.warmup = 10, .iters = 50}).mean.micros();
  const double gsync_us = run_consecutive(eg, *gsync, {.warmup = 10, .iters = 50}).mean.micros();
  EXPECT_GT(nic_us, 5.60 * 0.7);
  EXPECT_LT(nic_us, 5.60 * 1.3);
  const double factor = gsync_us / nic_us;
  EXPECT_GT(factor, 2.48 * 0.7);
  EXPECT_LT(factor, 2.48 * 1.4);
}

}  // namespace
}  // namespace qmb::core
