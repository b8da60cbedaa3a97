// Cluster builders, placement helpers, and the run driver.
#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/collectives.hpp"

namespace qmb::core {
namespace {

using sim::Engine;

TEST(MyriCluster, BuildsRequestedNodeCount) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 8);
  EXPECT_EQ(c.size(), 8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(c.node(i).index(), i);
  EXPECT_EQ(c.fabric().attached_nics(), 8u);
}

TEST(MyriCluster, RejectsTooFewNodes) {
  Engine e;
  EXPECT_THROW(MyriCluster(e, myri::lanaixp_cluster(), 1), std::invalid_argument);
}

TEST(MyriCluster, LargeClusterUsesClosTopology) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 64);
  EXPECT_EQ(c.size(), 64);
  // A 64-node Clos has tree structure: nodes in different 16-node groups
  // merge above level 1.
  EXPECT_GT(c.fabric().topology().merge_level(net::NicAddr(0), net::NicAddr(63)), 1);
}

TEST(MyriCluster, GroupIdsAreUnique) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  std::set<std::uint32_t> ids;
  for (int i = 0; i < 10; ++i) ids.insert(c.next_group_id());
  EXPECT_EQ(ids.size(), 10u);
}

TEST(ElanCluster, AlwaysAtLeastTwoLevels) {
  Engine e;
  ElanCluster c(e, elan::elan3_cluster(), 2);
  // Elite-16 is a dimension-two quaternary fat tree even half-populated.
  EXPECT_EQ(c.fabric().topology().top_level(), 2);
}

TEST(Placement, IdentityIsIota) {
  const auto p = identity_placement(5);
  EXPECT_EQ(p, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Placement, RandomIsAPermutation) {
  sim::Rng rng(3);
  const auto p = random_placement(16, rng);
  std::set<int> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 15);
}

TEST(Runner, CollectsExactlyItersSamples) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = make_collective(c, {});
  const auto r = run_consecutive(e, *b, {.warmup = 3, .iters = 7});
  EXPECT_EQ(r.iterations, 7u);
  EXPECT_EQ(r.per_iteration.count(), 7u);
  EXPECT_EQ(r.mean, r.per_iteration.mean());
}

TEST(Runner, ZeroWarmupWorks) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = make_collective(c, {});
  const auto r = run_consecutive(e, *b, {.warmup = 0, .iters = 3});
  EXPECT_EQ(r.per_iteration.count(), 3u);
  // First sample includes cold start from t=0.
  EXPECT_GT(r.per_iteration.max().picos(), 0);
}

/// Forwards to `inner`, changing what some ranks see.
struct Tampered final : Collective {
  Collective& inner;
  bool drop_odd_ranks = false;   // odd ranks never really enter
  std::int64_t result_skew = 0;  // added to every delivered result
  explicit Tampered(Collective& c) : inner(c) {}
  void enter(int rank, std::int64_t value, DoneFn done) override {
    if (drop_odd_ranks && rank % 2 != 0) return;
    inner.enter(rank, value, [this, done = std::move(done)](std::int64_t result) {
      done(result + result_skew);
    });
  }
  std::string_view name() const override { return "tampered"; }
  int size() const override { return inner.size(); }
  coll::OpKind kind() const override { return inner.kind(); }
};

TEST(Runner, ThrowsOnDeadlockedBarrier) {
  // A barrier that never completes must be detected by the watchdog, not
  // hang. Build one by only entering half the ranks via a wrapper.
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 4);
  auto b = make_collective(c, {});
  Tampered half(*b);
  half.drop_odd_ranks = true;
  EXPECT_THROW(run_consecutive(e, half, {.iters = 1}), std::runtime_error);
}

TEST(Runner, CountsResultsThatMissTheExpectedValue) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 4);
  auto b = make_collective(c, {});
  Tampered wrong(*b);
  wrong.result_skew = 1;  // a barrier's result must be 0
  const auto r = run_consecutive(e, wrong, {.warmup = 1, .iters = 2});
  EXPECT_EQ(r.value_errors, 4u * 3u);
}

TEST(Factories, AllMyriKindsConstruct) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 4);
  const std::unique_ptr<Collective> all[] = {
      make_collective(c, {.engine = coll::Engine::kHost}), make_direct_barrier(c, {}),
      make_collective(c, {})};
  for (const auto& b : all) {
    EXPECT_EQ(b->size(), 4);
    EXPECT_EQ(b->kind(), coll::OpKind::kBarrier);
    EXPECT_FALSE(b->name().empty());
  }
}

TEST(Factories, AllElanKindsConstruct) {
  Engine e;
  ElanCluster c(e, elan::elan3_cluster(), 4);
  const std::unique_ptr<Collective> all[] = {make_gsync_barrier(c), make_hgsync_barrier(c),
                                             make_collective(c, {})};
  for (const auto& b : all) {
    EXPECT_EQ(b->size(), 4);
    EXPECT_EQ(b->kind(), coll::OpKind::kBarrier);
    EXPECT_FALSE(b->name().empty());
  }
}

// ---------- split-phase start/wait ----------

TEST(SplitPhase, NotifyComputeWaitCompletesAllRanks) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 4);
  auto b = make_collective(c, {});
  int done = 0;
  for (int r = 0; r < b->size(); ++r) b->start(r, 0);
  for (int r = 0; r < b->size(); ++r) b->wait(r, [&done](std::int64_t) { ++done; });
  e.run();
  EXPECT_EQ(done, 4);
}

TEST(SplitPhase, WaitAfterProtocolFinishedCompletesImmediately) {
  // All ranks start, the engine runs to quiescence (the protocol finishes
  // with no waiter parked), and only then does the host wait(): the kReady
  // path must complete synchronously, without another engine step.
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = make_collective(c, {});
  b->start(0, 0);
  b->start(1, 0);
  e.run();
  int done = 0;
  b->wait(0, [&done](std::int64_t) { ++done; });
  b->wait(1, [&done](std::int64_t) { ++done; });
  EXPECT_EQ(done, 2);
}

TEST(SplitPhase, DoubleNotifyThrows) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = make_collective(c, {});
  b->start(0, 0);
  EXPECT_THROW(b->start(0, 0), std::logic_error);
}

TEST(SplitPhase, WaitWithoutNotifyThrows) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = make_collective(c, {});
  EXPECT_THROW(b->wait(0, [](std::int64_t) {}), std::logic_error);
}

TEST(SplitPhase, DoubleWaitThrows) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = make_collective(c, {});
  b->start(0, 0);
  b->wait(0, [](std::int64_t) {});
  EXPECT_THROW(b->wait(0, [](std::int64_t) {}), std::logic_error);
}

TEST(SplitPhase, RankOutOfRangeThrows) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = make_collective(c, {});
  EXPECT_THROW(b->start(-1, 0), std::logic_error);
  EXPECT_THROW(b->start(2, 0), std::logic_error);
}

TEST(SplitPhase, RunnerOverlapDominatesIterationCost) {
  // With compute overlap far above the 4-node barrier latency, each
  // iteration's visible cost is essentially the overlap itself.
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 4);
  auto b = make_collective(c, {});
  const auto overlap = sim::microseconds(500);
  const auto r = run_consecutive(e, *b, {.warmup = 1, .iters = 5, .overlap = overlap});
  EXPECT_EQ(r.iterations, 5u);
  EXPECT_GE(r.mean, overlap);
  EXPECT_LT(r.mean, overlap + sim::microseconds(100));
}

TEST(SplitPhase, RunnerZeroOverlapMatchesBlockingRunner) {
  // overlap == 0 degenerates to the blocking runner's cost structure: same
  // barrier, comparable mean (split-phase adds no protocol work).
  Engine e1;
  MyriCluster c1(e1, myri::lanaixp_cluster(), 4);
  auto b1 = make_collective(c1, {});
  const auto blocking = run_consecutive(e1, *b1, {.warmup = 1, .iters = 5});
  Engine e2;
  MyriCluster c2(e2, myri::lanaixp_cluster(), 4);
  auto b2 = make_collective(c2, {});
  const auto split =
      run_consecutive(e2, *b2, {.warmup = 1, .iters = 5, .overlap = sim::SimDuration::zero()});
  EXPECT_EQ(split.iterations, blocking.iterations);
  EXPECT_EQ(split.mean, blocking.mean);
}

TEST(SplitPhase, RunnerSkewsSplitPhaseEntriesToo) {
  // The one driver applies entry skew in both modes: skewed entries can
  // only stretch the completion-to-completion series.
  const auto mean_with_skew = [](sim::SimDuration skew) {
    Engine e;
    MyriCluster c(e, myri::lanaixp_cluster(), 4);
    auto b = make_collective(c, {});
    return run_consecutive(e, *b,
                           {.warmup = 1, .iters = 5, .overlap = sim::SimDuration::zero(),
                            .max_skew = skew, .skew_seed = 7})
        .mean;
  };
  EXPECT_GT(mean_with_skew(sim::microseconds(50)), mean_with_skew(sim::SimDuration::zero()));
}

TEST(Factories, PlacementMustCoverCluster) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 4);
  // A 4-rank barrier on 4 nodes with a permuted placement works.
  auto b = make_collective(c, {.rank_to_node = {3, 2, 1, 0}});
  const auto r = run_consecutive(e, *b, {.warmup = 0, .iters = 2});
  EXPECT_EQ(r.iterations, 2u);
}

}  // namespace
}  // namespace qmb::core
