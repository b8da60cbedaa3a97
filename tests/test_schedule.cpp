#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "core/group_window.hpp"
#include "model/analytic.hpp"

namespace qmb::coll {
namespace {

// ---------- dissemination ----------

TEST(Dissemination, StepCountIsCeilLog2) {
  for (int n : {2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33}) {
    const auto g = make_barrier_schedule(Algorithm::kDissemination, n);
    EXPECT_EQ(g.max_steps(), model::ceil_log2(n)) << "n=" << n;
  }
}

TEST(Dissemination, EveryRankSendsAndWaitsOncePerStep) {
  const auto g = make_barrier_schedule(Algorithm::kDissemination, 12);
  for (const auto& rs : g.ranks) {
    for (std::size_t s = 0; s < rs.step_count(); ++s) {
      EXPECT_EQ(rs.sends(s).size(), 1u);
      EXPECT_EQ(rs.waits(s).size(), 1u);
    }
  }
}

TEST(Dissemination, PeersFollowTheFormula) {
  const int n = 11;
  const auto g = make_barrier_schedule(Algorithm::kDissemination, n);
  for (int i = 0; i < n; ++i) {
    int dist = 1;
    const auto& rs = g.ranks[static_cast<std::size_t>(i)];
    for (std::size_t s = 0; s < rs.step_count(); ++s) {
      EXPECT_EQ(rs.sends(s)[0].peer, (i + dist) % n);
      EXPECT_EQ(rs.waits(s)[0].peer, (i - dist + n) % n);
      dist *= 2;
    }
  }
}

TEST(Dissemination, MessageCountIsNCeilLog2N) {
  for (int n : {2, 5, 8, 13, 16}) {
    const auto g = make_barrier_schedule(Algorithm::kDissemination, n);
    EXPECT_EQ(g.total_messages(), n * model::ceil_log2(n)) << "n=" << n;
  }
}

// ---------- pairwise exchange ----------

TEST(PairwiseExchange, PowerOfTwoIsPurePairing) {
  const auto g = make_barrier_schedule(Algorithm::kPairwiseExchange, 8);
  EXPECT_EQ(g.max_steps(), 3);
  for (int i = 0; i < 8; ++i) {
    int dist = 1;
    const auto& rs = g.ranks[static_cast<std::size_t>(i)];
    for (std::size_t s = 0; s < rs.step_count(); ++s) {
      ASSERT_EQ(rs.sends(s).size(), 1u);
      ASSERT_EQ(rs.waits(s).size(), 1u);
      EXPECT_EQ(rs.sends(s)[0].peer, i ^ dist);
      EXPECT_EQ(rs.waits(s)[0].peer, i ^ dist);
      dist *= 2;
    }
  }
}

TEST(PairwiseExchange, ExchangeIsSymmetric) {
  // If i sends to j with tag t, then j sends to i with tag t.
  const auto g = make_barrier_schedule(Algorithm::kPairwiseExchange, 16);
  std::set<std::tuple<int, int, std::uint32_t>> sends;
  for (int i = 0; i < 16; ++i) {
    const auto& rs = g.ranks[static_cast<std::size_t>(i)];
    for (std::size_t st = 0; st < rs.step_count(); ++st) {
      for (const auto& s : rs.sends(st)) sends.insert({i, s.peer, s.tag});
    }
  }
  for (const auto& [src, dst, tag] : sends) {
    EXPECT_TRUE(sends.contains({dst, src, tag}))
        << src << "->" << dst << " tag " << tag;
  }
}

TEST(PairwiseExchange, NonPowerOfTwoAddsTwoSteps) {
  // floor(log2 12) = 3 exchange steps among the low 8, plus pre and post.
  const auto g = make_barrier_schedule(Algorithm::kPairwiseExchange, 12);
  // Ranks 8..11 have exactly 2 steps (register, wait release).
  for (int i = 8; i < 12; ++i) {
    EXPECT_EQ(g.ranks[static_cast<std::size_t>(i)].step_count(), 2u) << i;
  }
  // Ranks 0..3 (with partners) have 1 + 3 + 1 steps.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(g.ranks[static_cast<std::size_t>(i)].step_count(), 5u) << i;
  }
  // Ranks 4..7 (no partner) have exactly the 3 exchange steps.
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(g.ranks[static_cast<std::size_t>(i)].step_count(), 3u) << i;
  }
}

TEST(PairwiseExchange, ExtraRanksSendOneMessageEach) {
  const auto g = make_barrier_schedule(Algorithm::kPairwiseExchange, 12);
  for (int i = 8; i < 12; ++i) {
    EXPECT_EQ(g.ranks[static_cast<std::size_t>(i)].total_sends(), 1);
    EXPECT_EQ(g.ranks[static_cast<std::size_t>(i)].total_waits(), 1);
  }
}

// ---------- gather-broadcast ----------

TEST(GatherBroadcast, RootHasGatherThenRelease) {
  const auto g = make_barrier_schedule(Algorithm::kGatherBroadcast, 7, 2);
  const auto& root = g.ranks[0];
  ASSERT_EQ(root.step_count(), 2u);
  EXPECT_EQ(root.waits(0).size(), 2u);  // children 1, 2
  EXPECT_TRUE(root.sends(0).empty());
  EXPECT_EQ(root.sends(1).size(), 2u);
  EXPECT_TRUE(root.waits(1).empty());
}

TEST(GatherBroadcast, LeafSendsUpWaitsDown) {
  const auto g = make_barrier_schedule(Algorithm::kGatherBroadcast, 7, 2);
  const auto& leaf = g.ranks[5];
  ASSERT_EQ(leaf.step_count(), 1u);
  ASSERT_EQ(leaf.sends(0).size(), 1u);
  ASSERT_EQ(leaf.waits(0).size(), 1u);
  EXPECT_EQ(leaf.sends(0)[0].peer, 2);  // parent of 5 with d=2
  EXPECT_EQ(leaf.waits(0)[0].peer, 2);
}

TEST(GatherBroadcast, MessageCountIsTwiceEdges) {
  for (int n : {2, 5, 9, 16}) {
    for (int d : {2, 4}) {
      const auto g = make_barrier_schedule(Algorithm::kGatherBroadcast, n, d);
      EXPECT_EQ(g.total_messages(), 2 * (n - 1)) << "n=" << n << " d=" << d;
    }
  }
}

TEST(GatherBroadcast, InvalidDegreeThrows) {
  EXPECT_THROW(make_barrier_schedule(Algorithm::kGatherBroadcast, 4, 1),
               std::invalid_argument);
}

TEST(GatherBroadcast, RadixZeroMeansDefaultDegreeTwo) {
  const auto def = make_barrier_schedule(Algorithm::kGatherBroadcast, 7, 0);
  const auto& root = def.ranks[0];
  ASSERT_EQ(root.step_count(), 2u);
  EXPECT_EQ(root.waits(0).size(), 2u);  // binary tree: children 1, 2
  EXPECT_EQ(def.total_messages(), 2 * (7 - 1));
}

// ---------- binomial tree ----------

TEST(Tree, RootGathersAllSubtreesAndReleases) {
  const auto g = make_barrier_schedule(Algorithm::kTree, 8);
  const auto& root = g.ranks[0];
  ASSERT_EQ(root.step_count(), 2u);
  EXPECT_EQ(root.waits(0).size(), 3u);  // children 1, 2, 4
  EXPECT_EQ(root.sends(1).size(), 3u);
  EXPECT_TRUE(root.sends(0).empty());
  EXPECT_TRUE(root.waits(1).empty());
}

TEST(Tree, ParentIsRankMinusLowBit) {
  const auto g = make_barrier_schedule(Algorithm::kTree, 13);
  for (int i = 1; i < 13; ++i) {
    const auto& rs = g.ranks[static_cast<std::size_t>(i)];
    const int parent = i - (i & -i);
    bool sends_up = false;
    for (std::size_t s = 0; s < rs.step_count(); ++s) {
      for (const auto& e : rs.sends(s)) {
        if (e.tag == kTagUp) {
          EXPECT_EQ(e.peer, parent) << "rank " << i;
          sends_up = true;
        }
      }
    }
    EXPECT_TRUE(sends_up) << "rank " << i;
  }
}

TEST(Tree, MessageCountIsTwiceEdges) {
  for (int n : {2, 3, 7, 8, 16, 21}) {
    const auto g = make_barrier_schedule(Algorithm::kTree, n);
    EXPECT_EQ(g.total_messages(), 2 * (n - 1)) << "n=" << n;
  }
}

// ---------- tournament ----------

TEST(Tournament, EveryLoserSignalsOnceAndIsWoken) {
  const auto g = make_barrier_schedule(Algorithm::kTournament, 16);
  // 15 losers each send one win-notification; 15 wake messages flow back:
  // 2(n-1) messages total, like the trees.
  EXPECT_EQ(g.total_messages(), 2 * (16 - 1));
  for (int i = 1; i < 16; ++i) {
    const auto& rs = g.ranks[static_cast<std::size_t>(i)];
    bool waits_wake = false;
    for (std::size_t s = 0; s < rs.step_count(); ++s) {
      for (const auto& e : rs.waits(s)) waits_wake |= e.tag == kTagWake;
    }
    EXPECT_TRUE(waits_wake) << "rank " << i;
  }
}

TEST(Tournament, LoserRoundIsLowestSetBit) {
  const auto g = make_barrier_schedule(Algorithm::kTournament, 8);
  // Rank 6 = 0b110 loses round 1 to rank 4: its up-message carries tag 1.
  const auto& rs = g.ranks[6];
  bool found = false;
  for (std::size_t s = 0; s < rs.step_count(); ++s) {
    for (const auto& e : rs.sends(s)) {
      if (e.tag == 1) {
        EXPECT_EQ(e.peer, 4);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

// ---------- f-way dissemination ----------

TEST(FwayDissemination, RoundCountIsCeilLogF) {
  // f = 4: 4^k rounds; n = 64 needs 3 rounds, n = 65 needs 4.
  EXPECT_EQ(make_barrier_schedule(Algorithm::kFwayDissemination, 64, 4).max_steps(), 3);
  EXPECT_EQ(make_barrier_schedule(Algorithm::kFwayDissemination, 65, 4).max_steps(), 4);
  // Default radix is 4.
  EXPECT_EQ(make_barrier_schedule(Algorithm::kFwayDissemination, 64, 0).max_steps(), 3);
}

TEST(FwayDissemination, RadixTwoMatchesDissemination) {
  // f = 2 degenerates to plain dissemination: same peers, same step count.
  const auto f2 = make_barrier_schedule(Algorithm::kFwayDissemination, 11, 2);
  const auto ds = make_barrier_schedule(Algorithm::kDissemination, 11);
  ASSERT_EQ(f2.max_steps(), ds.max_steps());
  for (int i = 0; i < 11; ++i) {
    const auto& a = f2.ranks[static_cast<std::size_t>(i)];
    const auto& b = ds.ranks[static_cast<std::size_t>(i)];
    ASSERT_EQ(a.step_count(), b.step_count());
    for (std::size_t s = 0; s < a.step_count(); ++s) {
      ASSERT_EQ(a.sends(s).size(), 1u);
      EXPECT_EQ(a.sends(s)[0].peer, b.sends(s)[0].peer);
    }
  }
}

TEST(FwayDissemination, EachRoundSendsAtMostFMinusOne) {
  const auto g = make_barrier_schedule(Algorithm::kFwayDissemination, 20, 5);
  for (const auto& rs : g.ranks) {
    for (std::size_t s = 0; s < rs.step_count(); ++s) {
      EXPECT_LE(rs.sends(s).size(), 4u);
      EXPECT_EQ(rs.sends(s).size(), rs.waits(s).size());
    }
  }
}

// ---------- the central-counter star ----------

TEST(RemoteAtomic, StarShape) {
  // The verbs central-counter barrier is gather-broadcast at degree n - 1.
  const auto g = make_barrier_schedule(Algorithm::kGatherBroadcast, 9, 8);
  const auto& hub = g.ranks[0];
  ASSERT_EQ(hub.step_count(), 2u);
  EXPECT_EQ(hub.waits(0).size(), 8u);  // every rank increments
  EXPECT_EQ(hub.sends(1).size(), 8u);  // hub releases everyone
  for (int i = 1; i < 9; ++i) {
    const auto& rs = g.ranks[static_cast<std::size_t>(i)];
    ASSERT_EQ(rs.step_count(), 1u);
    ASSERT_EQ(rs.sends(0).size(), 1u);
    EXPECT_EQ(rs.sends(0)[0].peer, 0);
    ASSERT_EQ(rs.waits(0).size(), 1u);
    EXPECT_EQ(rs.waits(0)[0].peer, 0);
  }
  EXPECT_EQ(g.total_messages(), 2 * (9 - 1));
}

TEST(AlgorithmNames, ZooRoundTripsThroughToString) {
  EXPECT_EQ(to_string(Algorithm::kTree), "tree");
  EXPECT_EQ(to_string(Algorithm::kTournament), "tournament");
  EXPECT_EQ(to_string(Algorithm::kFwayDissemination), "fway-dissemination");
}

// ---------- golden digest: every schedule the table builds ----------

/// FNV-1a over every rank's steps, sends, waits and edge ids, continuing
/// from `h`.
std::uint64_t digest(const GroupSchedule& g, std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(g.ranks.size());
  for (const RankSchedule& rs : g.ranks) {
    mix(rs.step_count());
    mix(rs.edge_count());
    for (std::size_t s = 0; s < rs.step_count(); ++s) {
      for (const std::span<const Edge> edges : {rs.sends(s), rs.waits(s)}) {
        mix(edges.size());
        for (const Edge& e : edges) {
          mix(RankSchedule::edge_key(e.peer, e.tag));
          mix(e.id);
        }
      }
    }
  }
  return h;
}

struct TablePair {
  OpKind kind;
  Algorithm algorithm;
  bool radixed = false;  // the pattern takes a degree or fan-out
};

constexpr TablePair kTablePairs[] = {
    {OpKind::kBarrier, Algorithm::kDissemination},
    {OpKind::kBarrier, Algorithm::kPairwiseExchange},
    {OpKind::kBarrier, Algorithm::kGatherBroadcast, true},
    {OpKind::kBarrier, Algorithm::kTree},
    {OpKind::kBarrier, Algorithm::kTournament},
    {OpKind::kBarrier, Algorithm::kFwayDissemination, true},
    {OpKind::kBcast, Algorithm::kGatherBroadcast, true},
    {OpKind::kBcast, Algorithm::kDissemination},
    {OpKind::kBcast, Algorithm::kTree},
    {OpKind::kAllreduce, Algorithm::kGatherBroadcast, true},
    {OpKind::kAllreduce, Algorithm::kPairwiseExchange},
    {OpKind::kAllreduce, Algorithm::kDissemination},
    {OpKind::kAllreduce, Algorithm::kTree},
    {OpKind::kAllreduce, Algorithm::kTournament},
    {OpKind::kAllreduce, Algorithm::kFwayDissemination, true},
    {OpKind::kAllgather, Algorithm::kGatherBroadcast, true},
    {OpKind::kAllgather, Algorithm::kPairwiseExchange},
    {OpKind::kAllgather, Algorithm::kDissemination},
    {OpKind::kAllgather, Algorithm::kTree},
    {OpKind::kAllgather, Algorithm::kTournament},
    {OpKind::kAllgather, Algorithm::kFwayDissemination, true},
    {OpKind::kAlltoall, Algorithm::kDissemination},
};

TEST(ScheduleGolden, EveryTableScheduleMatchesItsDigest) {
  // Pins every schedule edge for edge: a builder change that moves one
  // step, send, wait or edge id anywhere here changes the digest. The
  // value was computed once and must only change with a deliberate
  // schedule change (which also moves the bench fingerprints).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int n = 1; n <= 130; ++n) {
    std::vector<int> radices = {0, 2, 3, 4, 5, 8, 16};
    for (const int r : {n - 1, n + 1}) {
      if (r >= 2) radices.push_back(r);
    }
    for (const TablePair& p : kTablePairs) {
      const std::vector<int> roots =
          p.kind == OpKind::kBcast ? std::vector<int>{0, n / 2, n - 1} : std::vector<int>{0};
      for (const int root : roots) {
        for (const int radix : p.radixed ? radices : std::vector<int>{0}) {
          h = digest(make_collective_schedule(p.kind, n, root, p.algorithm, radix), h);
        }
      }
    }
    // The central-counter star: every rank signals rank 0, which releases all.
    h = digest(make_barrier_schedule(Algorithm::kGatherBroadcast, n, std::max(2, n - 1)), h);
  }
  EXPECT_EQ(h, 0xecbf91ed04eda762ULL) << std::hex << h;
}

TEST(ScheduleGolden, TablePairsAreTheLegalPairs) {
  for (const OpKind kind : {OpKind::kBarrier, OpKind::kBcast, OpKind::kAllreduce,
                            OpKind::kAllgather, OpKind::kAlltoall}) {
    std::vector<Algorithm> pinned;
    for (const TablePair& p : kTablePairs) {
      if (p.kind == kind) pinned.push_back(p.algorithm);
    }
    EXPECT_EQ(pinned, collective_algorithms_for(kind)) << to_string(kind);
  }
}

TEST(ScheduleRadix, AnyRadixAboveNPlusOneBuildsTheNPlusOneSchedule) {
  // Regression: an unbounded radix overflowed the d-ary tree's child index
  // and spun f-way dissemination's rounds ~radix times per rank.
  constexpr TablePair kRadixed[] = {
      {OpKind::kBarrier, Algorithm::kGatherBroadcast},
      {OpKind::kBarrier, Algorithm::kFwayDissemination},
      {OpKind::kAllreduce, Algorithm::kFwayDissemination},
      {OpKind::kBcast, Algorithm::kGatherBroadcast},
  };
  for (const int n : {8, 64}) {
    for (const TablePair& p : kRadixed) {
      EXPECT_EQ(digest(make_collective_schedule(p.kind, n, 0, p.algorithm, INT_MAX)),
                digest(make_collective_schedule(p.kind, n, 0, p.algorithm, n + 1)))
          << to_string(p.kind) << "/" << to_string(p.algorithm) << " n=" << n;
    }
  }
}

// ---------- correctness property (all algorithms, swept N) ----------

struct CorrectnessCase {
  Algorithm algorithm;
  int n;
  int radix;
};

/// The radix of the central-counter star, gather-broadcast at degree
/// max(2, n - 1). Its cases keep the name of the verbs barrier it models,
/// remote_atomic_n<N>_r0.
constexpr int kStar = -1;

class BarrierCorrectness : public ::testing::TestWithParam<CorrectnessCase> {};

TEST_P(BarrierCorrectness, FullInformationProperty) {
  const auto& p = GetParam();
  const int radix = p.radix == kStar ? std::max(2, p.n - 1) : p.radix;
  const auto g = make_barrier_schedule(p.algorithm, p.n, radix);
  EXPECT_TRUE(schedule_is_correct_barrier(g))
      << to_string(p.algorithm) << " n=" << p.n << " radix=" << p.radix;
}

std::vector<CorrectnessCase> all_cases() {
  std::vector<CorrectnessCase> cases;
  for (const auto alg : kBarrierAlgorithms) {
    const int radix = alg == Algorithm::kGatherBroadcast ? 4 : 0;
    for (int n = 1; n <= 33; ++n) cases.push_back({alg, n, radix});
  }
  // The radixed generators again at non-default fan-outs.
  for (const int f : {2, 3, 5, 8}) {
    for (int n : {1, 2, 7, 16, 33}) {
      cases.push_back({Algorithm::kFwayDissemination, n, f});
      cases.push_back({Algorithm::kGatherBroadcast, n, f});
    }
  }
  for (int n = 1; n <= 33; ++n) cases.push_back({Algorithm::kGatherBroadcast, n, kStar});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, BarrierCorrectness, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<CorrectnessCase>& info) {
      const bool star = info.param.radix == kStar;
      std::string name(star ? "remote-atomic" : to_string(info.param.algorithm));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_n" + std::to_string(info.param.n) + "_r" +
             std::to_string(star ? 0 : info.param.radix);
    });

// ---------- step machine ----------

/// One rank's operation 0 on a GroupWindow, the step machine every engine
/// runs: the sends it issues, in order, and its completions.
struct OneOp {
  std::vector<Edge> sent;
  int completions = 0;
  GroupWindow<> window;

  explicit OneOp(const RankSchedule& rs)
      : window(rs, OpKind::kBarrier, ReduceOp::kSum,
               {.send = [this](GroupWindow<>::Slot&, const Edge& e) { sent.push_back(e); },
                .complete = [this](GroupWindow<>::Slot&) { ++completions; }}) {}

  Arrival arrive(int peer, std::uint32_t tag) { return window.on_arrival(0, peer, tag); }
  [[nodiscard]] const GroupWindow<>::Slot& slot() { return *window.find(0); }
  [[nodiscard]] bool has_sent(int peer, std::uint32_t tag) {
    return slot().has_sent(window.schedule().find_edge(peer, tag));
  }
  /// The current step's waits that have not arrived: what a NACK round asks for.
  [[nodiscard]] std::vector<Edge> missing() {
    std::vector<Edge> out;
    for (const Edge& w : window.current_waits(slot())) {
      if (!slot().has_arrived(w.id)) out.push_back(w);
    }
    return out;
  }
};

TEST(ScheduleExecutor, IssuesStepSendsOnEntry) {
  const auto g = make_barrier_schedule(Algorithm::kDissemination, 4);
  OneOp op(g.ranks[0]);
  op.window.start();
  ASSERT_EQ(op.sent.size(), 1u);  // step 0 send only
  EXPECT_EQ(op.sent[0].peer, 1);
  EXPECT_EQ(op.completions, 0);
}

TEST(ScheduleExecutor, AdvancesThroughArrivals) {
  const auto g = make_barrier_schedule(Algorithm::kDissemination, 4);
  OneOp op(g.ranks[0]);
  op.window.start();
  EXPECT_EQ(op.arrive(3, 0), Arrival::kAccepted);  // step-0 wait
  EXPECT_EQ(op.sent.size(), 2u);                   // step-1 send issued
  EXPECT_EQ(op.arrive(2, 1), Arrival::kAccepted);  // step-1 wait
  EXPECT_EQ(op.completions, 1);
  EXPECT_TRUE(op.slot().complete);
}

TEST(ScheduleExecutor, BuffersEarlyArrivals) {
  const auto g = make_barrier_schedule(Algorithm::kDissemination, 4);
  OneOp op(g.ranks[0]);
  // Both arrivals land before start.
  EXPECT_EQ(op.arrive(3, 0), Arrival::kEarly);
  EXPECT_EQ(op.arrive(2, 1), Arrival::kEarly);
  EXPECT_EQ(op.completions, 0);
  EXPECT_EQ(op.window.start().duplicates, 0);
  EXPECT_EQ(op.completions, 1);
  EXPECT_EQ(op.sent.size(), 2u);
}

TEST(ScheduleExecutor, DuplicateArrivalReturnsFalse) {
  const auto g = make_barrier_schedule(Algorithm::kDissemination, 4);
  OneOp op(g.ranks[0]);
  op.window.start();
  EXPECT_EQ(op.arrive(3, 0), Arrival::kAccepted);
  EXPECT_EQ(op.arrive(3, 0), Arrival::kDuplicate);
}

TEST(ScheduleExecutor, MissingCurrentWaitsReported) {
  const auto g = make_barrier_schedule(Algorithm::kDissemination, 8);
  OneOp op(g.ranks[0]);
  op.window.start();
  auto missing = op.missing();
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].peer, 7);
  EXPECT_EQ(missing[0].tag, 0u);
  op.arrive(7, 0);
  missing = op.missing();
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].peer, 6);  // now waiting on step 1
}

TEST(ScheduleExecutor, HasSentTracksIssuedSends) {
  const auto g = make_barrier_schedule(Algorithm::kDissemination, 8);
  OneOp op(g.ranks[0]);
  op.window.start();
  EXPECT_TRUE(op.has_sent(1, 0));
  EXPECT_FALSE(op.has_sent(2, 1));  // step 1 not entered yet
  op.arrive(7, 0);
  EXPECT_TRUE(op.has_sent(2, 1));
}

TEST(ScheduleExecutor, ResetAllowsReuse) {
  const auto g = make_barrier_schedule(Algorithm::kDissemination, 2);
  OneOp op(g.ranks[0]);
  for (std::uint32_t seq = 0; seq < 2; ++seq) {
    op.window.start();
    op.window.on_arrival(seq, 1, 0);
  }
  EXPECT_EQ(op.completions, 2);
  // Operation 2 rebinds operation 0's slot, which forgets its step and bits.
  EXPECT_EQ(op.window.on_arrival(2, 1, 0), Arrival::kEarly);
  const GroupWindow<>::Slot& reused = *op.window.find(2);
  EXPECT_FALSE(reused.active);
  EXPECT_EQ(reused.step, 0u);
  EXPECT_FALSE(reused.has_sent(op.window.schedule().find_edge(1, 0)));
  op.window.start();
  EXPECT_EQ(op.completions, 3);
}

TEST(ScheduleExecutor, SingleRankCompletesImmediately) {
  const auto g = make_barrier_schedule(Algorithm::kDissemination, 1);
  OneOp op(g.ranks[0]);
  op.window.start();
  EXPECT_EQ(op.completions, 1);
}

// ---------- edge numbering ----------

TEST(EdgeNumbering, GeneratorsNumberEveryEdge) {
  const auto g = make_barrier_schedule(Algorithm::kPairwiseExchange, 6);
  for (const RankSchedule& rs : g.ranks) {
    const auto keys = rs.edge_keys();
    ASSERT_EQ(keys.size(), rs.edge_count());
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end(), std::greater_equal<>()), keys.end())
        << "edge keys must ascend strictly";
    for (std::size_t s = 0; s < rs.step_count(); ++s) {
      for (const std::span<const Edge> edges : {rs.sends(s), rs.waits(s)}) {
        for (const Edge& e : edges) {
          ASSERT_LT(e.id, rs.edge_count());
          EXPECT_EQ(keys[e.id], RankSchedule::edge_key(e.peer, e.tag));
          EXPECT_EQ(rs.find_edge(e.peer, e.tag), e.id);
        }
      }
    }
  }
  // A pairwise exchange sends and waits on the same (peer, tag): one id.
  const RankSchedule& exchange = g.ranks[0];
  EXPECT_EQ(exchange.sends(1)[0].id, exchange.waits(1)[0].id);
  EXPECT_EQ(g.ranks[0].find_edge(5, 0), kNoEdge);
}

TEST(EdgeNumbering, RepeatedKeyGetsOneIdAndSendsOnce) {
  const GroupSchedule g = ScheduleWriter::build(1, [](ScheduleWriter& w, int) {
    w.send(1, 7);
    w.wait(2, 7);
    w.end_step();
    w.send(1, 7);  // the same message again
    w.wait(3, 7);
    w.end_step();
  });
  const RankSchedule& rs = g.ranks[0];
  EXPECT_EQ(rs.edge_count(), 3u);
  EXPECT_EQ(rs.sends(0)[0].id, rs.sends(1)[0].id);

  OneOp op(rs);
  op.window.start();
  EXPECT_EQ(op.arrive(2, 7), Arrival::kAccepted);
  ASSERT_EQ(op.sent.size(), 1u);  // step 1 re-enters (1, 7): already sent
  EXPECT_TRUE(op.has_sent(1, 7));
  EXPECT_EQ(op.arrive(3, 7), Arrival::kAccepted);
  EXPECT_TRUE(op.slot().complete);
  EXPECT_EQ(op.sent.size(), 1u);
}

TEST(EdgeNumbering, ArrivalOnNoEdgeCountsOnceAndNeverCompletesAStep) {
  const auto g = make_barrier_schedule(Algorithm::kDissemination, 4);
  OneOp op(g.ranks[0]);
  op.window.start();
  // Rank 1 never sends to rank 0 at tag 0; only the reverse edge exists.
  EXPECT_EQ(op.arrive(1, 0), Arrival::kAccepted);
  EXPECT_EQ(op.arrive(1, 0), Arrival::kDuplicate);
  // A tag on no step at all.
  EXPECT_EQ(op.arrive(3, 9), Arrival::kAccepted);
  EXPECT_EQ(op.arrive(3, 9), Arrival::kDuplicate);
  EXPECT_EQ(op.slot().step, 0u);
  EXPECT_EQ(op.completions, 0);
  EXPECT_FALSE(op.has_sent(1, 9));
  ASSERT_EQ(op.missing().size(), 1u);
  // A recycled slot forgets them like every other arrival: operation 2
  // reuses operation 0's slot.
  for (std::uint32_t seq = 0; seq < 2; ++seq) {
    if (seq == 1) op.window.start();
    op.window.on_arrival(seq, 3, 0);
    op.window.on_arrival(seq, 2, 1);
  }
  ASSERT_EQ(op.completions, 2);
  op.window.start();
  EXPECT_EQ(op.window.on_arrival(2, 1, 0), Arrival::kAccepted);
  EXPECT_EQ(op.window.on_arrival(2, 3, 9), Arrival::kAccepted);
}

TEST(EdgeNumbering, WideStarRootSpillsPastOneWord) {
  // The star's root waits on n-1 edges and sends n-1 more: 126 edges,
  // beyond the 64 an inline bit word holds.
  const auto g = make_barrier_schedule(Algorithm::kGatherBroadcast, 64, 63);
  ASSERT_EQ(g.ranks[0].edge_count(), 126u);
  OneOp op(g.ranks[0]);
  op.window.start();
  for (int r = 63; r >= 1; --r) {
    EXPECT_EQ(op.completions, 0);
    EXPECT_EQ(op.arrive(r, kTagUp), Arrival::kAccepted);
    if (r == 2) {  // (40, kTagUp) is edge 78, in the second word
      EXPECT_EQ(op.arrive(40, kTagUp), Arrival::kDuplicate);
    }
  }
  EXPECT_EQ(op.completions, 1);
  EXPECT_EQ(op.sent.size(), 63u);
  EXPECT_TRUE(op.has_sent(63, kTagDown));
  EXPECT_EQ(op.arrive(40, kTagUp), Arrival::kStale);
}

// A deliberately broken schedule must be rejected by the checker.
TEST(CorrectnessChecker, RejectsIncompleteBarrier) {
  // Only a ring of single messages: rank i -> i+1; no transitive closure in
  // one step, and rank 0 completes knowing only rank 3.
  const GroupSchedule g = ScheduleWriter::build(4, [](ScheduleWriter& w, int i) {
    w.send((i + 1) % 4, 0);
    w.wait((i + 3) % 4, 0);
    w.end_step();
  });
  EXPECT_FALSE(schedule_is_correct_barrier(g));
}

}  // namespace
}  // namespace qmb::coll
