// The CollSpec construction API and the value-collective algorithm zoo:
// the correctness matrix over every advertised (op kind, algorithm) pair,
// placement validation, the split-phase start/wait state machine, and the
// algorithm name codec.
#include "core/coll_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/collectives.hpp"
#include "run/substrate.hpp"

namespace qmb::core {
namespace {

// ---------- in-memory value semantics of a schedule ----------

/// Mirrors GroupWindow's value rules without a cluster: sends are
/// issued at step entry carrying the accumulator *at entry*, a step
/// consumes its waits only once all of them arrived, and each consumed
/// edge folds with combine_value. Returns one result per rank, or throws
/// if the schedule deadlocks.
std::vector<std::int64_t> simulate_values(const coll::GroupSchedule& g,
                                          coll::OpKind kind, coll::ReduceOp op,
                                          const std::vector<std::int64_t>& input) {
  struct RankState {
    std::int64_t acc = 0;
    std::size_t step = 0;
    bool entered = false;
    std::map<std::pair<int, std::uint32_t>, std::deque<std::int64_t>> inbox;
  };
  const int n = g.size;
  std::vector<RankState> ranks(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    ranks[static_cast<std::size_t>(r)].acc = input[static_cast<std::size_t>(r)];
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (int r = 0; r < n; ++r) {
      RankState& me = ranks[static_cast<std::size_t>(r)];
      const coll::RankSchedule& rs = g.ranks[static_cast<std::size_t>(r)];
      while (me.step < rs.step_count()) {
        if (!me.entered) {
          for (const coll::Edge& e : rs.sends(me.step)) {
            ranks[static_cast<std::size_t>(e.peer)].inbox[{r, e.tag}].push_back(me.acc);
          }
          me.entered = true;
          progress = true;
        }
        bool all_arrived = true;
        for (const coll::Edge& w : rs.waits(me.step)) {
          const auto it = me.inbox.find({w.peer, w.tag});
          if (it == me.inbox.end() || it->second.empty()) {
            all_arrived = false;
            break;
          }
        }
        if (!all_arrived) break;
        for (const coll::Edge& w : rs.waits(me.step)) {
          auto& q = me.inbox[{w.peer, w.tag}];
          me.acc = coll::combine_value(kind, op, w.tag, me.acc, q.front());
          q.pop_front();
        }
        ++me.step;
        me.entered = false;
        progress = true;
      }
    }
  }
  std::vector<std::int64_t> out;
  for (int r = 0; r < n; ++r) {
    const RankState& me = ranks[static_cast<std::size_t>(r)];
    if (me.step != g.ranks[static_cast<std::size_t>(r)].step_count()) {
      throw std::runtime_error("schedule deadlocked at rank " + std::to_string(r));
    }
    out.push_back(me.acc);
  }
  return out;
}

constexpr coll::OpKind kValueKinds[] = {coll::OpKind::kBcast, coll::OpKind::kAllreduce,
                                        coll::OpKind::kAllgather,
                                        coll::OpKind::kAlltoall};

/// Every advertised (kind, algorithm) pair must produce the mathematically
/// correct result for every size 1..33 (both sides of every power-of-two
/// and power-of-f boundary) and every radix the generators special-case.
TEST(CollSpecMatrix, EveryAdvertisedPairIsValueCorrectForN1To33) {
  for (const coll::OpKind kind : kValueKinds) {
    for (const coll::Algorithm alg : collective_algorithms_for(kind)) {
      for (const int radix : {0, 3}) {
        for (int n = 1; n <= 33; ++n) {
          const int root = n > 2 ? 2 : 0;
          const auto g = make_collective_schedule(kind, n, root, alg, radix);
          std::vector<std::int64_t> input;
          std::int64_t sum = 0;
          for (int r = 0; r < n; ++r) {
            if (kind == coll::OpKind::kAllgather || kind == coll::OpKind::kAlltoall) {
              input.push_back(std::int64_t{1} << r);
            } else if (kind == coll::OpKind::kBcast) {
              input.push_back(r == root ? 4242 : -777);  // non-root junk must vanish
            } else {
              input.push_back(3 * r - 7);
              sum += 3 * r - 7;
            }
          }
          std::int64_t expected = 0;
          if (kind == coll::OpKind::kBcast) expected = 4242;
          else if (kind == coll::OpKind::kAllreduce) expected = sum;
          else expected = (std::int64_t{1} << n) - 1;
          const auto results =
              simulate_values(g, kind, coll::ReduceOp::kSum, input);
          for (int r = 0; r < n; ++r) {
            ASSERT_EQ(results[static_cast<std::size_t>(r)], expected)
                << coll::to_string(kind) << "/" << coll::to_string(alg) << " radix "
                << radix << " n=" << n << " rank " << r;
          }
        }
      }
    }
  }
}

TEST(CollSpecMatrix, AllreduceMinMaxHoldOnEveryAlgorithm) {
  for (const coll::Algorithm alg :
       collective_algorithms_for(coll::OpKind::kAllreduce)) {
    for (const coll::ReduceOp op : {coll::ReduceOp::kMin, coll::ReduceOp::kMax}) {
      for (const int n : {1, 2, 5, 9, 16, 27, 33}) {
        const auto g = make_collective_schedule(coll::OpKind::kAllreduce, n, 0, alg, 0);
        std::vector<std::int64_t> input;
        for (int r = 0; r < n; ++r) input.push_back((r * 31) % 17 - 8);
        std::int64_t expected = input[0];
        for (const std::int64_t v : input) {
          expected = op == coll::ReduceOp::kMin ? std::min(expected, v)
                                                : std::max(expected, v);
        }
        const auto results = simulate_values(g, coll::OpKind::kAllreduce, op, input);
        for (int r = 0; r < n; ++r) {
          ASSERT_EQ(results[static_cast<std::size_t>(r)], expected)
              << coll::to_string(alg) << (op == coll::ReduceOp::kMin ? " min" : " max")
              << " n=" << n;
        }
      }
    }
  }
}

TEST(CollSpecMatrix, UnsupportedPairsThrowWithBothNames) {
  try {
    (void)make_collective_schedule(coll::OpKind::kAlltoall, 8, 0,
                                   coll::Algorithm::kTree, 0);
    FAIL() << "alltoall/tree must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("alltoall"), std::string::npos) << what;
    EXPECT_NE(what.find("tree"), std::string::npos) << what;
  }
  EXPECT_THROW(make_collective_schedule(coll::OpKind::kBcast, 8, 0,
                                        coll::Algorithm::kPairwiseExchange, 0),
               std::invalid_argument);
  EXPECT_THROW(make_collective_schedule(coll::OpKind::kBcast, 8, 0,
                                        coll::Algorithm::kTournament, 0),
               std::invalid_argument);
}

// ---------- end-to-end: every pair on every substrate ----------

TEST(CollSpecEndToEnd, EveryAdvertisedPairRunsWithZeroValueErrors) {
  for (const run::Network net : {run::Network::kMyrinetXP, run::Network::kQuadrics,
                                 run::Network::kInfiniBand}) {
    for (const coll::OpKind kind : kValueKinds) {
      for (const coll::Algorithm alg : run::caps_algorithms(kind)) {
        run::ExperimentSpec s;
        s.network = net;
        s.nodes = 6;  // non-power size exercises the extra-rank paths
        s.op = kind;
        s.algorithm = alg;
        s.iters = 2;
        s.warmup = 1;
        ASSERT_EQ(run::validate(s), "")
            << run::to_string(net) << " " << coll::to_string(kind) << " "
            << coll::to_string(alg);
        const auto r = run::run_experiment(s);
        EXPECT_EQ(r.value_errors, 0u)
            << run::to_string(net) << " " << coll::to_string(kind) << " "
            << coll::to_string(alg);
        EXPECT_GT(r.mean_picos, 0u);
      }
    }
  }
}

TEST(CollSpecEndToEnd, ReduceAliasWithTreeAndOverlapRunsEverywhere) {
  // The ISSUE's acceptance probe: --op reduce --algorithm tree --overlap 16
  // must run end-to-end on every substrate that advertises the pair.
  const auto op = coll::parse_op_kind("reduce");
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(*op, coll::OpKind::kAllreduce);
  for (const run::Substrate* sub : run::substrates()) {
    ASSERT_TRUE(run::caps_allow_algorithm(*op, coll::Algorithm::kTree));
    run::ExperimentSpec s;
    s.network = sub->network();
    s.nodes = 6;
    s.op = *op;
    s.algorithm = coll::Algorithm::kTree;
    s.overlap_us = 16.0;
    s.iters = 3;
    s.warmup = 1;
    ASSERT_EQ(run::validate(s), "") << sub->name();
    const auto a = run::run_experiment(s);
    EXPECT_EQ(a.value_errors, 0u) << sub->name();
    // Each iteration hides 16us of compute behind the reduction, so the
    // mean can never be below the overlap itself.
    EXPECT_GE(a.mean_picos, 16'000'000u) << sub->name();
    const auto b = run::run_experiment(s);
    EXPECT_EQ(a.fingerprint(), b.fingerprint()) << sub->name();
  }
}

TEST(CollSpecEndToEnd, ValidateNamesTheOpAndTheLegalList) {
  // A pair outside the capability table is a usage error that names the
  // op kind and the capability-generated legal list.
  run::ExperimentSpec s;
  s.network = run::Network::kMyrinetXP;
  s.nodes = 4;
  s.op = coll::OpKind::kBcast;
  s.algorithm = coll::Algorithm::kPairwiseExchange;
  const std::string err = run::validate(s);
  EXPECT_NE(err.find("bcast"), std::string::npos) << err;
  EXPECT_NE(err.find("valid:"), std::string::npos) << err;
  EXPECT_NE(err.find("gb"), std::string::npos) << err;
  EXPECT_NE(err.find("tree"), std::string::npos) << err;

  s.op = coll::OpKind::kAlltoall;
  s.algorithm = coll::Algorithm::kTree;
  EXPECT_NE(run::validate(s).find("alltoall"), std::string::npos) << run::validate(s);

  // Overlap on a value op is legal now; the split-phase loop covers it.
  s = run::ExperimentSpec{};
  s.nodes = 4;
  s.op = coll::OpKind::kAllgather;
  s.overlap_us = 8.0;
  EXPECT_EQ(run::validate(s), "");
}

// ---------- placement validation ----------

/// make_collective's error for `rank_to_node` on a 4-node cluster, or ""
/// when it builds the collective.
template <typename Cluster, typename Config>
std::string placement_error(const Config& config, coll::Engine engine,
                            const std::vector<int>& rank_to_node) {
  sim::Engine sim_engine;
  Cluster cluster(sim_engine, config, 4);
  try {
    (void)make_collective(cluster, {.engine = engine, .rank_to_node = rank_to_node});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// The error text on every substrate and both engines, labelled.
std::vector<std::pair<std::string, std::string>> placement_errors(
    const std::vector<int>& rank_to_node) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto engine : {coll::Engine::kNic, coll::Engine::kHost}) {
    const std::string e = engine == coll::Engine::kNic ? "/nic" : "/host";
    out.emplace_back("myrinet" + e, placement_error<MyriCluster>(myri::lanaixp_cluster(),
                                                                 engine, rank_to_node));
    out.emplace_back("quadrics" + e,
                     placement_error<ElanCluster>(elan::elan3_cluster(), engine, rank_to_node));
    out.emplace_back("ib" + e, placement_error<IbCluster>(ib::ib_cluster(), engine, rank_to_node));
  }
  return out;
}

TEST(CollSpecPlacement, NodeNamedTwiceIsRejectedWithRankAndNode) {
  for (const auto& [where, error] : placement_errors({0, 1, 1, 2})) {
    EXPECT_NE(error.find("rank 2 names node 1"), std::string::npos) << where << ": " << error;
  }
}

TEST(CollSpecPlacement, NodeOutsideTheClusterIsRejectedWithRankAndNode) {
  for (const auto& [where, error] : placement_errors({0, 1, 2, 7})) {
    EXPECT_NE(error.find("rank 3 names node 7"), std::string::npos) << where << ": " << error;
  }
  for (const auto& [where, error] : placement_errors({-1, 1})) {
    EXPECT_NE(error.find("rank 0 names node -1"), std::string::npos) << where << ": " << error;
  }
}

TEST(CollSpecPlacement, PartialInjectivePlacementIsAccepted) {
  for (const auto& [where, error] : placement_errors({3, 1})) EXPECT_EQ(error, "") << where;
}

// ---------- split-phase state machine ----------

struct Fixture {
  sim::Engine engine;
  MyriCluster cluster;
  explicit Fixture(int n) : cluster(engine, myri::lanaixp_cluster(), n) {}
};

std::unique_ptr<Collective> nic_allreduce(MyriCluster& cluster) {
  coll::CollSpec spec;
  spec.op = coll::OpKind::kAllreduce;
  return make_collective(cluster, spec);
}

TEST(CollSpecSplitPhase, StartComputeWaitDeliversTheResult) {
  Fixture f(4);
  auto op = nic_allreduce(f.cluster);
  std::vector<std::int64_t> results(4, -1);
  for (int r = 0; r < 4; ++r) op->start(r, r + 1);
  // Wait long after the protocol finished: wait() must complete instantly
  // with the parked result.
  f.engine.schedule(sim::milliseconds(1), [&] {
    for (int r = 0; r < 4; ++r) {
      op->wait(r, [&results, r](std::int64_t v) {
        results[static_cast<std::size_t>(r)] = v;
      });
    }
  });
  f.engine.run();
  for (int r = 0; r < 4; ++r) EXPECT_EQ(results[static_cast<std::size_t>(r)], 10);
}

TEST(CollSpecSplitPhase, ImmediateWaitMatchesEnter) {
  // start() + immediate wait() is the blocking enter() — same result.
  Fixture f(4);
  auto op = nic_allreduce(f.cluster);
  std::vector<std::int64_t> results(4, -1);
  for (int r = 0; r < 4; ++r) {
    op->start(r, r + 1);
    op->wait(r, [&results, r](std::int64_t v) {
      results[static_cast<std::size_t>(r)] = v;
    });
  }
  f.engine.run();
  for (int r = 0; r < 4; ++r) EXPECT_EQ(results[static_cast<std::size_t>(r)], 10);
}

TEST(CollSpecSplitPhase, DoubleStartThrows) {
  Fixture f(4);
  auto op = nic_allreduce(f.cluster);
  op->start(0, 1);
  try {
    op->start(0, 1);
    FAIL() << "second start without wait must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("twice without waiting"), std::string::npos)
        << e.what();
  }
}

TEST(CollSpecSplitPhase, WaitWithoutStartThrows) {
  Fixture f(4);
  auto op = nic_allreduce(f.cluster);
  try {
    op->wait(0, [](std::int64_t) {});
    FAIL() << "wait without start must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("without a start"), std::string::npos)
        << e.what();
  }
}

TEST(CollSpecSplitPhase, DoubleWaitThrows) {
  Fixture f(4);
  auto op = nic_allreduce(f.cluster);
  op->start(0, 1);
  op->wait(0, [](std::int64_t) {});
  try {
    op->wait(0, [](std::int64_t) {});
    FAIL() << "second wait while parked must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("twice"), std::string::npos) << e.what();
  }
}

TEST(CollSpecSplitPhase, OutOfRangeRankThrows) {
  Fixture f(4);
  auto op = nic_allreduce(f.cluster);
  try {
    op->start(4, 1);
    FAIL() << "rank 4 of 4 must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(op->wait(-1, [](std::int64_t) {}), std::logic_error);
}

// ---------- name codecs ----------

TEST(CollSpecJson, EnumCodecsRoundTrip) {
  for (const coll::Algorithm a : coll::kBarrierAlgorithms) {
    EXPECT_EQ(coll::parse_algorithm(coll::to_string(a)), a);
  }
  EXPECT_FALSE(coll::parse_algorithm("butterfly").has_value());
}

// ---------- value algorithms change wire behaviour ----------

TEST(CollSpecEndToEnd, AllreduceAlgorithmsProduceDistinctFingerprints) {
  // tree and fway are genuinely different message patterns, not aliases of
  // the default: the end-to-end fingerprints must differ.
  run::ExperimentSpec s;
  s.network = run::Network::kMyrinetXP;
  s.nodes = 9;
  s.op = coll::OpKind::kAllreduce;
  s.iters = 3;
  s.warmup = 1;
  std::vector<std::uint64_t> prints;
  for (const coll::Algorithm alg :
       {coll::Algorithm::kDissemination, coll::Algorithm::kTree,
        coll::Algorithm::kFwayDissemination}) {
    s.algorithm = alg;
    prints.push_back(run::run_experiment(s).fingerprint());
  }
  EXPECT_NE(prints[0], prints[1]);
  EXPECT_NE(prints[0], prints[2]);
  EXPECT_NE(prints[1], prints[2]);
}

}  // namespace
}  // namespace qmb::core
