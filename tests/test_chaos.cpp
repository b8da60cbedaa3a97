// Chaos soak: random loss, duplication, blackouts and entry skew, all at
// once, across barrier implementations and value collectives. Deterministic
// per seed; every operation must still complete with the right result.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cluster.hpp"
#include "core/collectives.hpp"

namespace qmb::core {
namespace {

using sim::Engine;

/// The three Myrinet barriers. Four bytes wide with fixed values: each
/// case's ctest name dumps them.
enum class MyriKind : std::int32_t { kHost = 0, kDirect = 1, kColl = 2 };

std::unique_ptr<Collective> make_myri_barrier(MyriCluster& cluster, MyriKind kind,
                                              std::vector<int> placement) {
  coll::CollSpec spec{.rank_to_node = std::move(placement)};
  if (kind == MyriKind::kDirect) return make_direct_barrier(cluster, spec);
  if (kind == MyriKind::kHost) spec.engine = coll::Engine::kHost;
  return make_collective(cluster, spec);
}

// gtest has no printer for ChaosCase, so it dumps the raw bytes into each
// case's ctest name. The padding is spelled out and zeroed: left implicit,
// it carried leftover bytes, and some names changed between builds.
struct ChaosCase {
  MyriKind kind;
  std::uint8_t pad[4] = {};
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<ChaosCase>,
              "ChaosCase must have no implicit padding");

class BarrierChaos : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(BarrierChaos, SurvivesEverythingAtOnce) {
  const auto& p = GetParam();
  Engine engine;
  MyriCluster cluster(engine, myri::lanaixp_cluster(), 7);
  auto& faults = cluster.fabric().faults();
  faults.rule().prob(0.03, p.seed).drop();
  faults.rule().prob(0.02, p.seed + 1).duplicate();
  // A 300us blackout of one directed channel early in the run.
  faults.rule()
      .src(2)
      .dst(4)
      .window(sim::SimTime(50'000'000), sim::SimTime(350'000'000))
      .drop();

  sim::Rng rng(p.seed + 2);
  auto barrier = make_myri_barrier(cluster, p.kind, random_placement(7, rng));

  // Ranks enter 12 consecutive barriers with random per-entry skew.
  const int iters = 12;
  std::vector<int> done(7, 0);
  std::function<void(int)> loop = [&](int rank) {
    if (done[static_cast<std::size_t>(rank)] >= iters) return;
    const auto jitter = sim::microseconds(static_cast<std::int64_t>(rng.next_below(30)));
    engine.schedule(jitter, [&, rank] {
      barrier->enter(rank, 0, [&, rank](std::int64_t) {
        ++done[static_cast<std::size_t>(rank)];
        engine.schedule(sim::SimDuration::zero(), [&loop, rank] { loop(rank); });
      });
    });
  };
  for (int r = 0; r < 7; ++r) loop(r);
  engine.run_until(engine.now() + sim::seconds(30));
  for (int r = 0; r < 7; ++r) {
    EXPECT_EQ(done[static_cast<std::size_t>(r)], iters)
        << "rank " << r << " seed " << p.seed;
  }
}

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> cases;
  for (const auto kind : {MyriKind::kHost, MyriKind::kDirect, MyriKind::kColl}) {
    for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
      cases.push_back({.kind = kind, .seed = seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Kinds, BarrierChaos, ::testing::ValuesIn(chaos_cases()),
                         [](const ::testing::TestParamInfo<ChaosCase>& info) {
                           std::string kind;
                           switch (info.param.kind) {
                             case MyriKind::kHost: kind = "host"; break;
                             case MyriKind::kDirect: kind = "direct"; break;
                             case MyriKind::kColl: kind = "coll"; break;
                           }
                           return kind + "_seed" + std::to_string(info.param.seed);
                         });

class CollectiveChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CollectiveChaos, AllreduceValuesStayCorrectUnderChaos) {
  const std::uint64_t seed = GetParam();
  Engine engine;
  MyriCluster cluster(engine, myri::lanaixp_cluster(), 6);
  cluster.fabric().faults().rule().prob(0.03, seed).drop();
  cluster.fabric().faults().rule().prob(0.02, seed + 7).duplicate();
  coll::CollSpec cspec;
  cspec.op = coll::OpKind::kAllreduce;
  auto op = make_collective(cluster, cspec);
  sim::Rng rng(seed + 13);

  const int iters = 8;
  std::vector<std::vector<std::int64_t>> results(static_cast<std::size_t>(iters));
  std::function<void(int, int)> loop = [&](int rank, int iter) {
    if (iter >= iters) return;
    const auto jitter = sim::microseconds(static_cast<std::int64_t>(rng.next_below(25)));
    engine.schedule(jitter, [&, rank, iter] {
      op->enter(rank, (iter + 1) * 100 + rank, [&, rank, iter](std::int64_t v) {
        results[static_cast<std::size_t>(iter)].push_back(v);
        engine.schedule(sim::SimDuration::zero(),
                        [&loop, rank, iter] { loop(rank, iter + 1); });
      });
    });
  };
  for (int r = 0; r < 6; ++r) loop(r, 0);
  engine.run_until(engine.now() + sim::seconds(30));

  for (int it = 0; it < iters; ++it) {
    ASSERT_EQ(results[static_cast<std::size_t>(it)].size(), 6u)
        << "iteration " << it << " seed " << seed;
    const std::int64_t expected = 6 * (it + 1) * 100 + 15;  // + sum(0..5)
    for (const auto v : results[static_cast<std::size_t>(it)]) {
      EXPECT_EQ(v, expected) << "iteration " << it << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectiveChaos,
                         ::testing::Values(5ull, 17ull, 29ull, 41ull, 53ull),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(Chaos, QuadricsBarrierWithRandomSkewStaysCorrect) {
  // Quadrics is hardware-reliable; chaos there is skew only.
  for (std::uint64_t seed : {3ull, 9ull, 27ull}) {
    Engine engine;
    ElanCluster cluster(engine, elan::elan3_cluster(), 6);
    auto barrier = make_collective(cluster, {});
    sim::Rng rng(seed);
    std::vector<int> done(6, 0);
    std::function<void(int)> loop = [&](int rank) {
      if (done[static_cast<std::size_t>(rank)] >= 10) return;
      const auto jitter = sim::microseconds(static_cast<std::int64_t>(rng.next_below(40)));
      engine.schedule(jitter, [&, rank] {
        barrier->enter(rank, 0, [&, rank](std::int64_t) {
          ++done[static_cast<std::size_t>(rank)];
          engine.schedule(sim::SimDuration::zero(), [&loop, rank] { loop(rank); });
        });
      });
    };
    for (int r = 0; r < 6; ++r) loop(r);
    engine.run();
    for (int r = 0; r < 6; ++r) EXPECT_EQ(done[static_cast<std::size_t>(r)], 10);
  }
}

}  // namespace
}  // namespace qmb::core
