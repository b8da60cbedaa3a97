// Value-carrying collectives over the NIC collective protocol and their
// host-based counterparts (paper Sec. 9 future work).
#include "core/collectives.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cluster.hpp"

namespace qmb::core {
namespace {

using namespace qmb::sim::literals;
using sim::Engine;

struct Fixture {
  Engine engine;
  MyriCluster cluster;
  explicit Fixture(int n) : cluster(engine, myri::lanaixp_cluster(), n) {}
};

/// CollSpec builder shared by every construction below: kind + engine and
/// the occasional root/reduce/payload, everything else default.
coll::CollSpec spec_of(coll::OpKind kind, bool nic, int root = 0,
                       coll::ReduceOp op = coll::ReduceOp::kSum,
                       std::uint32_t payload = 8) {
  coll::CollSpec spec;
  spec.op = kind;
  spec.engine = nic ? coll::Engine::kNic : coll::Engine::kHost;
  spec.root = root;
  spec.reduce = op;
  spec.payload_bytes = payload;
  return spec;
}

/// Runs one collective operation with per-rank values; returns results.
std::vector<std::int64_t> run_once(Engine& engine, Collective& op,
                                   const std::vector<std::int64_t>& values,
                                   std::vector<sim::SimDuration> delays = {}) {
  const int n = op.size();
  std::vector<std::int64_t> results(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < n; ++r) {
    const auto d = delays.empty() ? sim::SimDuration::zero()
                                  : delays[static_cast<std::size_t>(r)];
    engine.schedule(d, [&op, &values, &results, r] {
      op.enter(r, values[static_cast<std::size_t>(r)],
               [&results, r](std::int64_t v) { results[static_cast<std::size_t>(r)] = v; });
    });
  }
  engine.run();
  return results;
}

// ---------- allreduce ----------

// gtest has no printer for ArCase, so it dumps the raw bytes into each
// case's ctest name. The padding is spelled out and zeroed: left implicit,
// it carried leftover heap bytes, and some names changed on every build.
struct ArCase {
  bool nic;
  std::uint8_t pad0[3] = {};
  int n;
  coll::ReduceOp op;
  std::uint8_t pad1[3] = {};
};
static_assert(std::has_unique_object_representations_v<ArCase>,
              "ArCase must have no implicit padding");

class AllreduceSweep : public ::testing::TestWithParam<ArCase> {};

TEST_P(AllreduceSweep, ComputesTheReduction) {
  const auto& p = GetParam();
  Fixture f(p.n);
  auto op = make_collective(f.cluster, spec_of(coll::OpKind::kAllreduce, p.nic, 0, p.op));
  std::vector<std::int64_t> values;
  std::int64_t sum = 0, mn = 1 << 20, mx = -(1 << 20);
  for (int r = 0; r < p.n; ++r) {
    const std::int64_t v = (r * 37) % 23 - 11;
    values.push_back(v);
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  const std::int64_t expected = p.op == coll::ReduceOp::kSum   ? sum
                                : p.op == coll::ReduceOp::kMin ? mn
                                                               : mx;
  const auto results = run_once(f.engine, *op, values);
  for (int r = 0; r < p.n; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], expected)
        << op->name() << " n=" << p.n << " rank " << r;
  }
}

std::vector<ArCase> allreduce_cases() {
  std::vector<ArCase> cases;
  for (bool nic : {true, false}) {
    for (int n : {2, 3, 4, 5, 7, 8, 12, 16}) {
      for (auto op : {coll::ReduceOp::kSum, coll::ReduceOp::kMin, coll::ReduceOp::kMax}) {
        cases.push_back({.nic = nic, .n = n, .op = op});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllreduceSweep, ::testing::ValuesIn(allreduce_cases()),
                         [](const ::testing::TestParamInfo<ArCase>& info) {
                           const char* op = info.param.op == coll::ReduceOp::kSum   ? "sum"
                                            : info.param.op == coll::ReduceOp::kMin ? "min"
                                                                                    : "max";
                           return std::string(info.param.nic ? "nic" : "host") + "_" + op +
                                  "_n" + std::to_string(info.param.n);
                         });

// ---------- bcast ----------

class BcastSweep : public ::testing::TestWithParam<std::pair<bool, int>> {};

TEST_P(BcastSweep, EveryRankReceivesRootValue) {
  const auto [nic, n] = GetParam();
  for (int root : {0, n / 2, n - 1}) {
    Fixture f(n);
    auto op = make_collective(f.cluster, spec_of(coll::OpKind::kBcast, nic, root));
    std::vector<std::int64_t> values(static_cast<std::size_t>(n), 0);
    values[static_cast<std::size_t>(root)] = 0xC0FFEE + root;
    const auto results = run_once(f.engine, *op, values);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)], 0xC0FFEE + root)
          << "root=" << root << " rank=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BcastSweep,
    ::testing::Values(std::pair{true, 2}, std::pair{true, 5}, std::pair{true, 8},
                      std::pair{true, 13}, std::pair{false, 2}, std::pair{false, 5},
                      std::pair{false, 8}, std::pair{false, 13}),
    [](const ::testing::TestParamInfo<std::pair<bool, int>>& info) {
      return std::string(info.param.first ? "nic" : "host") + "_n" +
             std::to_string(info.param.second);
    });

// ---------- allgather ----------

class AllgatherSweep : public ::testing::TestWithParam<std::pair<bool, int>> {};

TEST_P(AllgatherSweep, GathersEveryContribution) {
  const auto [nic, n] = GetParam();
  Fixture f(n);
  auto op = make_collective(f.cluster, spec_of(coll::OpKind::kAllgather, nic));
  std::vector<std::int64_t> values;
  for (int r = 0; r < n; ++r) values.push_back(std::int64_t{1} << r);
  const std::int64_t full = (std::int64_t{1} << n) - 1;
  const auto results = run_once(f.engine, *op, values);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], full) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllgatherSweep,
    ::testing::Values(std::pair{true, 2}, std::pair{true, 6}, std::pair{true, 8},
                      std::pair{true, 16}, std::pair{false, 2}, std::pair{false, 6},
                      std::pair{false, 8}, std::pair{false, 16}),
    [](const ::testing::TestParamInfo<std::pair<bool, int>>& info) {
      return std::string(info.param.first ? "nic" : "host") + "_n" +
             std::to_string(info.param.second);
    });

// ---------- behaviour ----------

TEST(Collectives, NicBeatsHostForEveryKind) {
  for (const auto kind :
       {coll::OpKind::kBcast, coll::OpKind::kAllreduce, coll::OpKind::kAllgather}) {
    auto mean_us = [&](bool nic) {
      Fixture f(8);
      auto op = make_collective(f.cluster, spec_of(kind, nic));
      // Consecutive operations, paper methodology.
      std::vector<std::int64_t> values(8, 1);
      sim::SimTime last_done;
      int remaining = 30 * 8;
      std::function<void(int)> loop = [&](int r) {
        op->enter(r, values[static_cast<std::size_t>(r)], [&, r](std::int64_t) {
          last_done = f.engine.now();
          if (--remaining > 0 && remaining >= 8) {
            f.engine.schedule(sim::SimDuration::zero(), [&loop, r] { loop(r); });
          }
        });
      };
      for (int r = 0; r < 8; ++r) loop(r);
      f.engine.run();
      return last_done.micros() / 30.0;
    };
    const double host = mean_us(false);
    const double nic = mean_us(true);
    EXPECT_GT(host / nic, 1.5) << "kind " << static_cast<int>(kind);
  }
}

TEST(Collectives, AllreduceSurvivesPacketLoss) {
  Fixture f(8);
  f.cluster.fabric().faults().add_nth_rule(net::NicAddr(0), net::NicAddr(1), 1);
  f.cluster.fabric().faults().add_nth_rule(net::NicAddr(4), net::NicAddr(6), 1);
  auto op = make_collective(f.cluster, spec_of(coll::OpKind::kAllreduce, true));
  std::vector<std::int64_t> values;
  for (int r = 0; r < 8; ++r) values.push_back(r + 1);
  const auto results = run_once(f.engine, *op, values);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], 36) << "rank " << r;
  }
}

TEST(Collectives, SkewedEntryStillCorrect) {
  Fixture f(6);
  auto op = make_collective(f.cluster, spec_of(coll::OpKind::kAllreduce, true));
  std::vector<std::int64_t> values{1, 2, 3, 4, 5, 6};
  std::vector<sim::SimDuration> delays;
  for (int r = 0; r < 6; ++r) delays.push_back(sim::microseconds((5 - r) * 30));
  const auto results = run_once(f.engine, *op, values, delays);
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], 21) << "rank " << r;
  }
}

TEST(Collectives, ConsecutiveAllreducesDoNotLeakState) {
  Fixture f(4);
  auto op = make_collective(f.cluster, spec_of(coll::OpKind::kAllreduce, true));
  // Values change per iteration; each result must match its own iteration.
  std::vector<std::vector<std::int64_t>> results(3);
  std::function<void(int, int)> loop = [&](int rank, int iter) {
    if (iter >= 3) return;
    op->enter(rank, (iter + 1) * 10 + rank, [&, rank, iter](std::int64_t v) {
      results[static_cast<std::size_t>(iter)].push_back(v);
      f.engine.schedule(sim::SimDuration::zero(),
                        [&loop, rank, iter] { loop(rank, iter + 1); });
    });
  };
  for (int r = 0; r < 4; ++r) loop(r, 0);
  f.engine.run();
  // iteration i: sum of (i+1)*10 + r for r in 0..3 = 4*(i+1)*10 + 6.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(results[static_cast<std::size_t>(i)].size(), 4u);
    for (const auto v : results[static_cast<std::size_t>(i)]) {
      EXPECT_EQ(v, 4 * (i + 1) * 10 + 6) << "iteration " << i;
    }
  }
}

TEST(Collectives, AllgatherWireBytesGrowWithMask) {
  // Later dissemination steps ship bigger fragments: total bytes must
  // exceed N*log2(N) minimal messages of one word each.
  Fixture f(8);
  auto op = make_collective(f.cluster, spec_of(coll::OpKind::kAllgather, true));
  std::vector<std::int64_t> values;
  for (int r = 0; r < 8; ++r) values.push_back(std::int64_t{1} << r);
  run_once(f.engine, *op, values);
  const auto header = f.cluster.config().lanai.header_bytes;
  const std::uint64_t min_bytes = 24ull * (header + 8);  // if every msg carried 1 word
  EXPECT_GT(f.cluster.fabric().bytes_sent(), min_bytes);
}

TEST(Collectives, TwoCollectivesCoexistOnOneCluster) {
  // Host-based executors demultiplex by group id: run a host allreduce and
  // a host bcast back-to-back on the same cluster.
  Fixture f(4);
  auto ar = make_collective(f.cluster, spec_of(coll::OpKind::kAllreduce, false));
  auto bc = make_collective(f.cluster, spec_of(coll::OpKind::kBcast, false, 1));
  std::vector<std::int64_t> ar_out(4, -1), bc_out(4, -1);
  for (int r = 0; r < 4; ++r) {
    ar->enter(r, r + 1, [&, r](std::int64_t v) { ar_out[static_cast<std::size_t>(r)] = v; });
    bc->enter(r, r == 1 ? 99 : 0,
              [&, r](std::int64_t v) { bc_out[static_cast<std::size_t>(r)] = v; });
  }
  f.engine.run();
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(ar_out[static_cast<std::size_t>(r)], 10);
    EXPECT_EQ(bc_out[static_cast<std::size_t>(r)], 99);
  }
}

// ---------- alltoall ----------

class AlltoallSweep : public ::testing::TestWithParam<std::pair<bool, int>> {};

TEST_P(AlltoallSweep, PersonalizedExchangeCompletes) {
  const auto [nic, n] = GetParam();
  Fixture f(n);
  auto op = make_collective(f.cluster, spec_of(coll::OpKind::kAlltoall, nic));
  std::vector<std::int64_t> values;
  for (int r = 0; r < n; ++r) values.push_back(std::int64_t{1} << r);
  const std::int64_t full = (std::int64_t{1} << n) - 1;
  const auto results = run_once(f.engine, *op, values);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], full) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlltoallSweep,
    ::testing::Values(std::pair{true, 2}, std::pair{true, 5}, std::pair{true, 8},
                      std::pair{false, 2}, std::pair{false, 5}, std::pair{false, 8}),
    [](const ::testing::TestParamInfo<std::pair<bool, int>>& info) {
      return std::string(info.param.first ? "nic" : "host") + "_n" +
             std::to_string(info.param.second);
    });

TEST(Collectives, AlltoallSendsOneMessagePerOrderedPair) {
  Fixture f(6);
  auto op = make_collective(f.cluster, spec_of(coll::OpKind::kAlltoall, true));
  std::vector<std::int64_t> values(6, 1);
  run_once(f.engine, *op, values);
  EXPECT_EQ(f.cluster.fabric().packets_sent(), 6u * 5u);
}

// ---------- Quadrics chained-RDMA collectives ----------

struct ElanFixture {
  sim::Engine engine;
  ElanCluster cluster;
  explicit ElanFixture(int n) : cluster(engine, elan::elan3_cluster(), n) {}
};

class ElanCollectiveSweep
    : public ::testing::TestWithParam<std::pair<coll::OpKind, int>> {};

TEST_P(ElanCollectiveSweep, ComputesTheRightResult) {
  const auto [kind, n] = GetParam();
  for (const bool nic : {true, false}) {
    ElanFixture f(n);
    auto op = make_collective(f.cluster, spec_of(kind, nic, n - 1));
    std::vector<std::int64_t> values;
    std::int64_t expected = 0;
    switch (kind) {
      case coll::OpKind::kBcast:
        values.assign(static_cast<std::size_t>(n), 0);
        values[static_cast<std::size_t>(n - 1)] = 4242;  // root = n-1
        expected = 4242;
        break;
      case coll::OpKind::kAllreduce:
        for (int r = 0; r < n; ++r) {
          values.push_back(3 * r + 1);
          expected += 3 * r + 1;
        }
        break;
      case coll::OpKind::kAllgather:
      case coll::OpKind::kAlltoall:
        for (int r = 0; r < n; ++r) values.push_back(std::int64_t{1} << r);
        expected = (std::int64_t{1} << n) - 1;
        break;
      case coll::OpKind::kBarrier:
        values.assign(static_cast<std::size_t>(n), 0);
        break;
    }
    std::vector<std::int64_t> results(static_cast<std::size_t>(n), -1);
    for (int r = 0; r < n; ++r) {
      op->enter(r, values[static_cast<std::size_t>(r)],
                [&results, r](std::int64_t v) { results[static_cast<std::size_t>(r)] = v; });
    }
    f.engine.run();
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)], expected)
          << op->name() << " n=" << n << " rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ElanCollectiveSweep,
    ::testing::Values(std::pair{coll::OpKind::kBcast, 2},
                      std::pair{coll::OpKind::kBcast, 7},
                      std::pair{coll::OpKind::kAllreduce, 2},
                      std::pair{coll::OpKind::kAllreduce, 5},
                      std::pair{coll::OpKind::kAllreduce, 8},
                      std::pair{coll::OpKind::kAllgather, 6},
                      std::pair{coll::OpKind::kAlltoall, 5}),
    [](const ::testing::TestParamInfo<std::pair<coll::OpKind, int>>& info) {
      const char* k = "";
      switch (info.param.first) {
        case coll::OpKind::kBcast: k = "bcast"; break;
        case coll::OpKind::kAllreduce: k = "allreduce"; break;
        case coll::OpKind::kAllgather: k = "allgather"; break;
        case coll::OpKind::kAlltoall: k = "alltoall"; break;
        case coll::OpKind::kBarrier: k = "barrier"; break;
      }
      return std::string(k) + "_n" + std::to_string(info.param.second);
    });

TEST(ElanCollectives, NicBeatsHostLevel) {
  auto once_us = [](bool nic) {
    ElanFixture f(8);
    auto op = make_collective(f.cluster, spec_of(coll::OpKind::kAllreduce, nic));
    for (int r = 0; r < 8; ++r) {
      op->enter(r, r, [](std::int64_t) {});
    }
    f.engine.run();
    return f.engine.now().micros();
  };
  EXPECT_GT(once_us(false), 1.5 * once_us(true));
}

TEST(Collectives, LargePayloadsStayCorrectAndCostMore) {
  // Consecutive 8-node bcasts (paper Sec. 8 methodology), NIC vs host, on
  // both sides of the static send packet's 64-byte capacity. Past it the
  // NIC loses the fast path (coll_static_payload) and falls back to pool
  // buffers and host DMA, so its lead over the host narrows; correctness
  // must hold at every size.
  const std::uint32_t sizes[] = {8, 64, 65, 256, 1024, 2048, 4096};
  const auto mean_us = [](std::uint32_t payload, bool nic) {
    Fixture f(8);
    auto op = make_collective(
        f.cluster, spec_of(coll::OpKind::kBcast, nic, 0, coll::ReduceOp::kSum, payload));
    const RunSeries r = run_consecutive(f.engine, *op, {.warmup = 20, .iters = 50});
    EXPECT_EQ(r.iterations, 50u);
    EXPECT_EQ(r.value_errors, 0u) << payload << " B, " << (nic ? "NIC" : "host");
    return r.mean.micros();
  };
  std::vector<double> nic, host;
  for (const std::uint32_t bytes : sizes) {
    nic.push_back(mean_us(bytes, true));
    host.push_back(mean_us(bytes, false));
  }
  // 8 and 64 B ride the static packet; 65 B is the first size that cannot.
  EXPECT_NEAR(nic[1], nic[0], 0.5);
  EXPECT_GT(nic[2], nic[1] + 3.0);
  EXPECT_GT(host[1] / nic[1], host[2] / nic[2]);
  for (std::size_t i = 1; i < nic.size(); ++i) {
    EXPECT_GE(nic[i], nic[i - 1]) << sizes[i] << " B";
    EXPECT_GE(host[i], host[i - 1]) << sizes[i] << " B";
  }
  // The speedups EXPERIMENTS.md quotes: 3.19x through 64 B, 2.77-2.81x past.
  for (std::size_t i = 0; i < nic.size(); ++i) {
    const double speedup = host[i] / nic[i];
    if (sizes[i] <= 64) {
      EXPECT_NEAR(speedup, 3.19, 0.005) << sizes[i] << " B";
    } else {
      EXPECT_GT(speedup, 2.765) << sizes[i] << " B";
      EXPECT_LT(speedup, 2.815) << sizes[i] << " B";
    }
  }
}

TEST(Collectives, ElanLargePayloadCorrectAndAccounted) {
  // Elan RDMA carries any payload size; correctness must hold and the wire
  // accounting must reflect the payload on every bcast edge.
  sim::Engine engine;
  ElanCluster cluster(engine, elan::elan3_cluster(), 8);
  auto op = make_collective(
      cluster, spec_of(coll::OpKind::kBcast, true, 0, coll::ReduceOp::kSum, 2048));
  std::vector<std::int64_t> results(8, -1);
  for (int r = 0; r < 8; ++r) {
    op->enter(r, r == 0 ? 555 : 0,
              [&results, r](std::int64_t v) { results[static_cast<std::size_t>(r)] = v; });
  }
  engine.run();
  for (int r = 0; r < 8; ++r) EXPECT_EQ(results[static_cast<std::size_t>(r)], 555);
  // 7 payload-carrying DOWN edges at 2 KB each, plus 7 small UP acks.
  EXPECT_GE(cluster.fabric().bytes_sent(), 7u * 2048u);
}

TEST(Collectives, ScheduleFactoryRejectsBadArgs) {
  EXPECT_THROW(make_collective_schedule(coll::OpKind::kBcast, 4, 7), std::invalid_argument);
  EXPECT_THROW(make_collective_schedule(coll::OpKind::kBcast, 4, -1), std::invalid_argument);
  EXPECT_THROW(make_collective_schedule(coll::OpKind::kBcast, 0, 0), std::invalid_argument);
}

TEST(Collectives, ScheduleFactoryHonorsRequestedBarrierAlgorithm) {
  // Regression: this factory used to hardcode dissemination for barriers,
  // silently ignoring the algorithm the caller asked for.
  for (const coll::Algorithm alg : coll::kBarrierAlgorithms) {
    const auto got = make_collective_schedule(coll::OpKind::kBarrier, 8, 0, alg, 0);
    const auto want = coll::make_barrier_schedule(alg, 8, 0);
    ASSERT_EQ(got.ranks.size(), want.ranks.size());
    for (std::size_t r = 0; r < got.ranks.size(); ++r) {
      EXPECT_EQ(got.ranks[r].step_count(), want.ranks[r].step_count())
          << coll::to_string(alg) << " rank " << r;
    }
  }
  // And the radix flows through: a 4-way dissemination on 16 ranks is 2
  // rounds, a 2-way one is 4.
  const auto f4 = make_collective_schedule(coll::OpKind::kBarrier, 16, 0,
                                           coll::Algorithm::kFwayDissemination, 4);
  const auto f2 = make_collective_schedule(coll::OpKind::kBarrier, 16, 0,
                                           coll::Algorithm::kFwayDissemination, 2);
  EXPECT_EQ(f4.ranks[0].step_count(), 2u);
  EXPECT_EQ(f2.ranks[0].step_count(), 4u);
}

TEST(Collectives, CombineValueRules) {
  using coll::combine_value;
  using coll::OpKind;
  using coll::ReduceOp;
  EXPECT_EQ(combine_value(OpKind::kBarrier, ReduceOp::kSum, 0, 5, 7), 5);
  EXPECT_EQ(combine_value(OpKind::kBcast, ReduceOp::kSum, coll::kTagDown, 5, 7), 7);
  EXPECT_EQ(combine_value(OpKind::kAllgather, ReduceOp::kSum, 0, 0b101, 0b010), 0b111);
  EXPECT_EQ(combine_value(OpKind::kAllreduce, ReduceOp::kSum, 0, 5, 7), 12);
  EXPECT_EQ(combine_value(OpKind::kAllreduce, ReduceOp::kMin, 1, 5, 7), 5);
  EXPECT_EQ(combine_value(OpKind::kAllreduce, ReduceOp::kMax, 2, 5, 7), 7);
  // Result-tagged allreduce edges replace (the release of extra ranks).
  EXPECT_EQ(combine_value(OpKind::kAllreduce, ReduceOp::kSum, coll::kTagPost, 5, 42), 42);
}

TEST(Collectives, ValueWords) {
  EXPECT_EQ(coll::value_words(coll::OpKind::kAllreduce, 123456), 1);
  EXPECT_EQ(coll::value_words(coll::OpKind::kAllgather, 0b1011), 3);
  EXPECT_EQ(coll::value_words(coll::OpKind::kAllgather, 0), 1);
}

}  // namespace
}  // namespace qmb::core
