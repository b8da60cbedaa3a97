// End-to-end tests of the three Myrinet barrier implementations.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/collectives.hpp"

namespace qmb::core {
namespace {

using namespace qmb::sim::literals;
using sim::Engine;
using sim::SimTime;

/// The three Myrinet barriers. Four bytes wide with fixed values: each
/// sweep case's ctest name dumps them.
enum class MyriKind : std::int32_t { kHost = 0, kDirect = 1, kColl = 2 };

std::unique_ptr<Collective> make_myri_barrier(MyriCluster& cluster, MyriKind kind,
                                              coll::Algorithm algorithm,
                                              std::vector<int> placement = {}) {
  coll::CollSpec spec{.algorithm = algorithm, .rank_to_node = std::move(placement)};
  if (kind == MyriKind::kDirect) return make_direct_barrier(cluster, spec);
  if (kind == MyriKind::kHost) spec.engine = coll::Engine::kHost;
  return make_collective(cluster, spec);
}

struct Case {
  MyriKind kind;
  coll::Algorithm algorithm;
  int nodes;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string kind;
  switch (info.param.kind) {
    case MyriKind::kHost: kind = "host"; break;
    case MyriKind::kDirect: kind = "direct"; break;
    case MyriKind::kColl: kind = "coll"; break;
  }
  std::string alg(coll::to_string(info.param.algorithm));
  for (char& c : alg) {
    if (c == '-') c = '_';
  }
  return kind + "_" + alg + "_n" + std::to_string(info.param.nodes);
}

class MyriBarrierSweep : public ::testing::TestWithParam<Case> {};

TEST_P(MyriBarrierSweep, ConsecutiveBarriersComplete) {
  const Case& p = GetParam();
  Engine engine;
  MyriCluster cluster(engine, myri::lanaixp_cluster(), p.nodes);
  auto barrier = make_myri_barrier(cluster, p.kind, p.algorithm);
  const auto result = run_consecutive(engine, *barrier, {.warmup = 2, .iters = 8});
  EXPECT_EQ(result.iterations, 8u);
  EXPECT_GT(result.mean.picos(), 0);
  EXPECT_LT(result.mean.micros(), 500.0);
}

TEST_P(MyriBarrierSweep, BarrierSafetyWithStraggler) {
  const Case& p = GetParam();
  Engine engine;
  MyriCluster cluster(engine, myri::lanaixp_cluster(), p.nodes);
  auto barrier = make_myri_barrier(cluster, p.kind, p.algorithm);
  const auto straggle = sim::microseconds(300);
  std::vector<SimTime> completed(static_cast<std::size_t>(p.nodes));
  for (int r = 0; r < p.nodes; ++r) {
    const auto d = r == p.nodes / 2 ? straggle : sim::microseconds(r);
    engine.schedule(d, [&, r] {
      barrier->enter(r, 0, [&, r](std::int64_t) {
        completed[static_cast<std::size_t>(r)] = engine.now();
      });
    });
  }
  engine.run();
  for (int r = 0; r < p.nodes; ++r) {
    EXPECT_GT(completed[static_cast<std::size_t>(r)].picos(), straggle.picos())
        << "rank " << r << " exited before the straggler entered";
  }
}

std::vector<Case> sweep_cases() {
  std::vector<Case> cases;
  for (const auto kind : {MyriKind::kHost, MyriKind::kDirect, MyriKind::kColl}) {
    for (const auto alg :
         {coll::Algorithm::kDissemination, coll::Algorithm::kPairwiseExchange}) {
      for (const int n : {2, 3, 4, 6, 8, 11, 16}) {
        cases.push_back({kind, alg, n});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MyriBarrierSweep, ::testing::ValuesIn(sweep_cases()),
                         case_name);

TEST(MyriBarriers, NicCollectiveBeatsHostBased) {
  for (const int n : {4, 8, 16}) {
    Engine eh, en;
    MyriCluster ch(eh, myri::lanaixp_cluster(), n);
    MyriCluster cn(en, myri::lanaixp_cluster(), n);
    auto host = make_myri_barrier(ch, MyriKind::kHost, coll::Algorithm::kDissemination);
    auto nic = make_myri_barrier(cn, MyriKind::kColl,
                               coll::Algorithm::kDissemination);
    const auto host_r = run_consecutive(eh, *host, {.warmup = 10, .iters = 50});
    const auto nic_r = run_consecutive(en, *nic, {.warmup = 10, .iters = 50});
    const double factor = host_r.mean.micros() / nic_r.mean.micros();
    EXPECT_GT(factor, 1.5) << "n=" << n;
  }
}

TEST(MyriBarriers, CollectiveProtocolBeatsDirectScheme) {
  Engine ed, ec;
  MyriCluster cd(ed, myri::lanaixp_cluster(), 8);
  MyriCluster cc(ec, myri::lanaixp_cluster(), 8);
  auto direct = make_myri_barrier(cd, MyriKind::kDirect, coll::Algorithm::kDissemination);
  auto coll_b = make_myri_barrier(cc, MyriKind::kColl,
                                coll::Algorithm::kDissemination);
  const auto direct_r = run_consecutive(ed, *direct, {.warmup = 10, .iters = 50});
  const auto coll_r = run_consecutive(ec, *coll_b, {.warmup = 10, .iters = 50});
  EXPECT_GT(direct_r.mean.picos(), coll_r.mean.picos());
}

TEST(MyriBarriers, TwoDirectBarriersShareOneCluster) {
  // Every NIC's direct engine tells its groups apart by the BarrierTag's
  // group field, so a second direct barrier on the same nodes leaves the
  // first one's arrivals alone.
  Engine engine;
  MyriCluster cluster(engine, myri::lanaixp_cluster(), 4);
  auto first = make_myri_barrier(cluster, MyriKind::kDirect, coll::Algorithm::kDissemination);
  auto second = make_myri_barrier(cluster, MyriKind::kDirect, coll::Algorithm::kDissemination);
  for (Collective* barrier : {first.get(), second.get()}) {
    SCOPED_TRACE(std::string(barrier->name()));
    const auto r = run_consecutive(engine, *barrier, {.warmup = 2, .iters = 8});
    EXPECT_EQ(r.iterations, 8u);
    EXPECT_EQ(r.value_errors, 0u);
  }
}

TEST(MyriBarriers, BarriersOutlastTheTagSequenceWindow) {
  // Host-level and direct-scheme messages carry only the low 8 bits of the
  // operation sequence (core::BarrierTag); receivers widen them against
  // their own progress, so a run past 256 operations must still complete.
  for (const MyriKind kind : {MyriKind::kHost, MyriKind::kDirect}) {
    Engine engine;
    MyriCluster cluster(engine, myri::lanaixp_cluster(), 4);
    auto barrier = make_myri_barrier(cluster, kind, coll::Algorithm::kDissemination);
    SCOPED_TRACE(std::string(barrier->name()));
    const auto r = run_consecutive(engine, *barrier, {.warmup = 0, .iters = 300});
    EXPECT_EQ(r.iterations, 300u);
  }
}

TEST(MyriBarriers, CollectiveProtocolHalvesWirePackets) {
  // The direct scheme ACKs every barrier message; the collective protocol
  // sends none (receiver-driven NACKs only on loss).
  Engine ed, ec;
  MyriCluster cd(ed, myri::lanaixp_cluster(), 8);
  MyriCluster cc(ec, myri::lanaixp_cluster(), 8);
  auto direct = make_myri_barrier(cd, MyriKind::kDirect, coll::Algorithm::kDissemination);
  auto coll_b = make_myri_barrier(cc, MyriKind::kColl,
                                coll::Algorithm::kDissemination);
  run_consecutive(ed, *direct, {.warmup = 0, .iters = 10});
  run_consecutive(ec, *coll_b, {.warmup = 0, .iters = 10});
  EXPECT_EQ(cd.fabric().packets_sent(), 2 * cc.fabric().packets_sent());
}

TEST(MyriBarriers, RandomPlacementMatchesIdentity) {
  // Paper Sec. 8.1: random node permutations showed only negligible
  // variation. On a single crossbar, placement must be near-irrelevant.
  Engine ei, ep;
  MyriCluster ci(ei, myri::lanaixp_cluster(), 8);
  MyriCluster cp(ep, myri::lanaixp_cluster(), 8);
  sim::Rng rng(123);
  auto ident = make_myri_barrier(ci, MyriKind::kColl,
                               coll::Algorithm::kDissemination);
  auto perm = make_myri_barrier(cp, MyriKind::kColl,
                              coll::Algorithm::kDissemination, random_placement(8, rng));
  const auto ri = run_consecutive(ei, *ident, {.warmup = 10, .iters = 50});
  const auto rp = run_consecutive(ep, *perm, {.warmup = 10, .iters = 50});
  const double rel = std::abs(ri.mean.micros() - rp.mean.micros()) / ri.mean.micros();
  EXPECT_LT(rel, 0.15);
}

TEST(MyriBarriers, PairwiseExchangeSlowerOnNonPowerOfTwo) {
  // Fig. 5/6: PE pays two extra steps at non-powers of two; DS does not.
  Engine ep, ed;
  MyriCluster cp(ep, myri::lanaixp_cluster(), 6);
  MyriCluster cd(ed, myri::lanaixp_cluster(), 6);
  auto pe = make_myri_barrier(cp, MyriKind::kColl,
                            coll::Algorithm::kPairwiseExchange);
  auto ds = make_myri_barrier(cd, MyriKind::kColl,
                            coll::Algorithm::kDissemination);
  const auto rpe = run_consecutive(ep, *pe, {.warmup = 5, .iters = 20});
  const auto rds = run_consecutive(ed, *ds, {.warmup = 5, .iters = 20});
  EXPECT_GT(rpe.mean.picos(), rds.mean.picos());
}

TEST(MyriBarriers, AlgorithmsTieOnPowerOfTwo) {
  Engine ep, ed;
  MyriCluster cp(ep, myri::lanaixp_cluster(), 8);
  MyriCluster cd(ed, myri::lanaixp_cluster(), 8);
  auto pe = make_myri_barrier(cp, MyriKind::kColl,
                            coll::Algorithm::kPairwiseExchange);
  auto ds = make_myri_barrier(cd, MyriKind::kColl,
                            coll::Algorithm::kDissemination);
  const auto rpe = run_consecutive(ep, *pe, {.warmup = 5, .iters = 20});
  const auto rds = run_consecutive(ed, *ds, {.warmup = 5, .iters = 20});
  const double rel = std::abs(rpe.mean.micros() - rds.mean.micros()) / rds.mean.micros();
  EXPECT_LT(rel, 0.10);
}

TEST(MyriBarriers, NicBarrierSurvivesRandomLoss) {
  Engine engine;
  MyriCluster cluster(engine, myri::lanaixp_cluster(), 8);
  cluster.fabric().faults().install({.prob = 0.02, .seed = 2024});
  auto barrier = make_myri_barrier(cluster, MyriKind::kColl,
                                      coll::Algorithm::kDissemination);
  const auto result = run_consecutive(engine, *barrier, {.warmup = 0, .iters = 30});
  EXPECT_EQ(result.iterations, 30u);
}

TEST(MyriBarriers, HostBarrierSurvivesRandomLoss) {
  Engine engine;
  MyriCluster cluster(engine, myri::lanaixp_cluster(), 4);
  cluster.fabric().faults().install({.prob = 0.02, .seed = 7});
  auto barrier = make_myri_barrier(cluster, MyriKind::kHost,
                                      coll::Algorithm::kDissemination);
  const auto result = run_consecutive(engine, *barrier, {.warmup = 0, .iters = 15});
  EXPECT_EQ(result.iterations, 15u);
}

TEST(MyriBarriers, LatencyGrowsLogarithmically) {
  // Doubling the node count should add roughly one trigger step, far less
  // than doubling the latency.
  auto mean_at = [](int n) {
    Engine e;
    MyriCluster c(e, myri::lanaixp_cluster(), n);
    auto b = make_myri_barrier(c, MyriKind::kColl,
                            coll::Algorithm::kDissemination);
    return run_consecutive(e, *b, {.warmup = 5, .iters = 20}).mean.micros();
  };
  const double at4 = mean_at(4);
  const double at8 = mean_at(8);
  const double at16 = mean_at(16);
  EXPECT_GT(at8, at4);
  EXPECT_GT(at16, at8);
  EXPECT_LT(at16, 2.0 * at8);            // sub-linear growth
  EXPECT_NEAR(at16 - at8, at8 - at4, 2.0);  // roughly constant per-step cost
}

}  // namespace
}  // namespace qmb::core
