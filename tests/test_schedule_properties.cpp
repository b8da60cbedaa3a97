// Randomized-order property tests of the schedule step machine: a collective's
// result and completion must not depend on the order in which messages
// happen to arrive (the network may interleave them arbitrarily), and the
// payload semantics must be exactly those of an in-step fold.
//
// These properties are the ones that catch fold-ordering bugs: an early
// arrival folded at arrival time (instead of at step consumption) yields
// order-dependent allreduce results.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/collectives.hpp"
#include "core/group_window.hpp"
#include "core/schedule.hpp"
#include "sim/rng.hpp"

namespace qmb::coll {
namespace {

struct WireMsg {
  int src, dst;
  std::uint32_t tag;
  std::int64_t value;
};

/// Executes one operation over all ranks with message delivery order chosen
/// by `rng`: any pending message may be delivered next. Returns per-rank
/// results; fails the test on non-completion.
std::vector<std::int64_t> run_shuffled(const GroupSchedule& g, OpKind kind, ReduceOp op,
                                       const std::vector<std::int64_t>& inputs,
                                       sim::Rng& rng) {
  const int n = g.size;
  std::vector<std::int64_t> results(static_cast<std::size_t>(n), -999);
  std::vector<std::unique_ptr<GroupWindow<>>> windows(static_cast<std::size_t>(n));
  std::deque<WireMsg> wire;

  for (int r = 0; r < n; ++r) {
    windows[static_cast<std::size_t>(r)] = std::make_unique<GroupWindow<>>(
        g.ranks[static_cast<std::size_t>(r)], kind, op,
        GroupWindow<>::Hooks{
            .send =
                [&wire, r](GroupWindow<>::Slot& s, const Edge& e) {
                  wire.push_back({r, e.peer, e.tag, s.acc});
                },
            .complete =
                [&results, r](GroupWindow<>::Slot& s) {
                  results[static_cast<std::size_t>(r)] = s.acc;
                },
        });
  }
  // Ranks start in random order too.
  const auto start_order = rng.permutation(static_cast<std::size_t>(n));
  for (const auto r : start_order) {
    windows[r]->start(inputs[r]);
  }
  while (!wire.empty()) {
    const auto pick = rng.next_below(wire.size());
    const WireMsg m = wire[pick];
    wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(pick));
    windows[static_cast<std::size_t>(m.dst)]->on_arrival(0, m.src, m.tag, m.value);
  }
  return results;
}

// gtest has no printer for PropCase, so it dumps the raw bytes into each
// case's ctest name. The padding is spelled out and zeroed: left implicit,
// it carried leftover bytes, and some names changed between builds.
struct PropCase {
  OpKind kind;
  std::uint8_t pad[3] = {};
  int n;
};
static_assert(std::has_unique_object_representations_v<PropCase>,
              "PropCase must have no implicit padding");

class OrderInvariance : public ::testing::TestWithParam<PropCase> {};

TEST_P(OrderInvariance, ResultIndependentOfDeliveryOrder) {
  const auto& p = GetParam();
  GroupSchedule g;
  std::vector<std::int64_t> inputs;
  std::int64_t expected = 0;
  switch (p.kind) {
    case OpKind::kBarrier:
      g = make_barrier_schedule(Algorithm::kDissemination, p.n);
      inputs.assign(static_cast<std::size_t>(p.n), 0);
      expected = 0;
      break;
    case OpKind::kBcast:
      g = make_collective_schedule(OpKind::kBcast, p.n, 0);
      inputs.assign(static_cast<std::size_t>(p.n), 0);
      inputs[0] = 777;
      expected = 777;
      break;
    case OpKind::kAllreduce:
      g = make_collective_schedule(OpKind::kAllreduce, p.n, 0);
      for (int r = 0; r < p.n; ++r) {
        inputs.push_back(5 * r - 7);
        expected += 5 * r - 7;
      }
      break;
    case OpKind::kAllgather:
      g = make_collective_schedule(OpKind::kAllgather, p.n, 0);
      for (int r = 0; r < p.n; ++r) inputs.push_back(std::int64_t{1} << r);
      expected = (std::int64_t{1} << p.n) - 1;
      break;
    case OpKind::kAlltoall:
      g = make_collective_schedule(OpKind::kAlltoall, p.n, 0);
      for (int r = 0; r < p.n; ++r) inputs.push_back(std::int64_t{1} << r);
      expected = (std::int64_t{1} << p.n) - 1;
      break;
  }

  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    sim::Rng rng(seed);
    const auto results = run_shuffled(g, p.kind, ReduceOp::kSum, inputs, rng);
    for (int r = 0; r < p.n; ++r) {
      ASSERT_EQ(results[static_cast<std::size_t>(r)], expected)
          << "kind=" << static_cast<int>(p.kind) << " n=" << p.n << " seed=" << seed
          << " rank=" << r;
    }
  }
}

std::vector<PropCase> prop_cases() {
  std::vector<PropCase> cases;
  for (const auto kind : {OpKind::kBarrier, OpKind::kBcast, OpKind::kAllreduce,
                          OpKind::kAllgather, OpKind::kAlltoall}) {
    for (const int n : {2, 3, 5, 8, 11, 16}) cases.push_back({.kind = kind, .n = n});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OrderInvariance, ::testing::ValuesIn(prop_cases()),
                         [](const ::testing::TestParamInfo<PropCase>& info) {
                           const char* k = "";
                           switch (info.param.kind) {
                             case OpKind::kBarrier: k = "barrier"; break;
                             case OpKind::kBcast: k = "bcast"; break;
                             case OpKind::kAllreduce: k = "allreduce"; break;
                             case OpKind::kAllgather: k = "allgather"; break;
                             case OpKind::kAlltoall: k = "alltoall"; break;
                           }
                           return std::string(k) + "_n" + std::to_string(info.param.n);
                         });

TEST(OrderInvariance, MinMaxReductionsToo) {
  for (const auto op : {ReduceOp::kMin, ReduceOp::kMax}) {
    const int n = 7;
    const auto g = make_collective_schedule(OpKind::kAllreduce, n, 0);
    std::vector<std::int64_t> inputs;
    for (int r = 0; r < n; ++r) inputs.push_back((r * 13) % 9 - 4);
    std::int64_t expected = inputs[0];
    for (const auto v : inputs) {
      expected = op == ReduceOp::kMin ? std::min(expected, v) : std::max(expected, v);
    }
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      sim::Rng rng(seed);
      const auto results = run_shuffled(g, OpKind::kAllreduce, op, inputs, rng);
      for (int r = 0; r < n; ++r) {
        ASSERT_EQ(results[static_cast<std::size_t>(r)], expected) << "seed " << seed;
      }
    }
  }
}

TEST(OrderInvariance, TwoOverlappingOperationsStayIsolated) {
  // Run two consecutive allreduces where the second op's messages race the
  // first's completion; results must match their own operation regardless
  // of interleaving.
  const int n = 4;
  const auto g = make_collective_schedule(OpKind::kAllreduce, n, 0);
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    sim::Rng rng(seed);
    std::vector<std::vector<std::int64_t>> results(2);
    std::vector<std::unique_ptr<GroupWindow<>>> windows(n);
    struct SeqMsg {
      std::uint32_t seq;
      int src, dst;
      std::uint32_t tag;
      std::int64_t value;
    };
    std::deque<SeqMsg> wire;
    for (int r = 0; r < n; ++r) {
      windows[static_cast<std::size_t>(r)] = std::make_unique<GroupWindow<>>(
          g.ranks[static_cast<std::size_t>(r)], OpKind::kAllreduce, ReduceOp::kSum,
          GroupWindow<>::Hooks{
              .send =
                  [&wire, r](GroupWindow<>::Slot& s, const Edge& e) {
                    wire.push_back({s.seq, r, e.peer, e.tag, s.acc});
                  },
              .complete =
                  [&results, &windows, r](GroupWindow<>::Slot& s) {
                    results[s.seq].push_back(s.acc);
                    if (s.seq == 0) {
                      // Enter the next operation immediately on completion.
                      windows[static_cast<std::size_t>(r)]->start(100 + r);
                    }
                  },
          });
    }
    for (int r = 0; r < n; ++r) windows[static_cast<std::size_t>(r)]->start(r + 1);
    while (!wire.empty()) {
      const auto pick = rng.next_below(wire.size());
      const SeqMsg m = wire[pick];
      wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(pick));
      windows[static_cast<std::size_t>(m.dst)]->on_arrival(m.seq, m.src, m.tag, m.value);
    }
    ASSERT_EQ(results[0].size(), 4u) << "seed " << seed;
    ASSERT_EQ(results[1].size(), 4u) << "seed " << seed;
    for (const auto v : results[0]) EXPECT_EQ(v, 10);           // 1+2+3+4
    for (const auto v : results[1]) EXPECT_EQ(v, 406);          // 100..103 summed
  }
}

// ---------- the window's numbered step machine vs. a set-based reference ----------

/// The step-advance rules as a plain (peer, tag) set machine, with no edge
/// numbering and no operation window: what a GroupWindow slot's bits over
/// edge ids must reproduce.
class SetReferenceExecutor {
 public:
  SetReferenceExecutor(const RankSchedule& schedule, std::function<void(const Edge&)> send,
                       std::function<void(std::size_t)> consume)
      : schedule_(&schedule), send_(std::move(send)), consume_(std::move(consume)) {}

  void start() {
    started_ = true;
    advance();
  }
  bool on_arrival(int peer, std::uint32_t tag) {
    if (!arrived_.insert({peer, tag}).second) return false;
    if (started_ && !complete()) advance();
    return true;
  }
  [[nodiscard]] bool complete() const { return started_ && step_ >= schedule_->step_count(); }
  [[nodiscard]] std::size_t step() const { return step_; }
  [[nodiscard]] bool has_sent(int peer, std::uint32_t tag) const {
    return sent_.contains({peer, tag});
  }
  [[nodiscard]] std::vector<std::pair<int, std::uint32_t>> missing_waits() const {
    std::vector<std::pair<int, std::uint32_t>> missing;
    if (!started_ || complete()) return missing;
    for (const Edge& w : schedule_->waits(step_)) {
      if (!arrived_.contains({w.peer, w.tag})) missing.emplace_back(w.peer, w.tag);
    }
    return missing;
  }

 private:
  void advance() {
    while (step_ < schedule_->step_count()) {
      for (const Edge& e : schedule_->sends(step_)) {
        if (sent_.insert({e.peer, e.tag}).second) send_(e);
      }
      for (const Edge& w : schedule_->waits(step_)) {
        if (!arrived_.contains({w.peer, w.tag})) return;
      }
      if (!schedule_->waits(step_).empty()) consume_(step_);
      ++step_;
    }
  }

  const RankSchedule* schedule_;
  std::function<void(const Edge&)> send_;
  std::function<void(std::size_t)> consume_;
  std::set<std::pair<int, std::uint32_t>> sent_;
  std::set<std::pair<int, std::uint32_t>> arrived_;
  std::size_t step_ = 0;
  bool started_ = false;
};

/// The one-word payload message (src, tag) carries: one bit picked by a
/// hash of its key, so a union of folded payloads says which edges were
/// folded.
std::int64_t edge_bit(int src, std::uint32_t tag) {
  const std::uint64_t h = RankSchedule::edge_key(src, tag) * 0x9E3779B97F4A7C15ULL;
  return std::int64_t{1} << ((h >> 32) % 63);
}

/// One rank's GroupWindow (operation 0, folding like an allgather) and its
/// reference, fed the same arrivals.
struct RankPair {
  std::vector<std::pair<int, std::uint32_t>> sent, ref_sent;  // in issue order
  std::int64_t ref_acc = 0;  // the union of the reference's consumed waits
  int early_repeats = 0;     // arrivals before start the reference read as repeats
  std::unique_ptr<GroupWindow<>> window;
  std::unique_ptr<SetReferenceExecutor> ref;
};

/// Runs one operation of `g` with both machines per rank under a random
/// schedule of rank starts, deliveries (some before the receiver started),
/// retransmitted twins and arrivals on no schedule edge, comparing every
/// observable after each event. Returns the first mismatch, or "".
std::string compare_with_reference(const GroupSchedule& g, sim::Rng& rng) {
  const int n = g.size;
  std::vector<RankPair> ranks(static_cast<std::size_t>(n));
  std::vector<WireMsg> wire;      // pending deliveries
  std::vector<WireMsg> delivered; // candidates for a retransmitted twin
  for (int r = 0; r < n; ++r) {
    RankPair& p = ranks[static_cast<std::size_t>(r)];
    const RankSchedule& rs = g.ranks[static_cast<std::size_t>(r)];
    p.window = std::make_unique<GroupWindow<>>(
        rs, OpKind::kAllgather, ReduceOp::kSum,
        GroupWindow<>::Hooks{
            .send =
                [&p, &wire, r](GroupWindow<>::Slot&, const Edge& e) {
                  p.sent.emplace_back(e.peer, e.tag);
                  wire.push_back({r, e.peer, e.tag, edge_bit(r, e.tag)});
                },
            .complete = [](GroupWindow<>::Slot&) {},
        });
    p.ref = std::make_unique<SetReferenceExecutor>(
        rs, [&p](const Edge& e) { p.ref_sent.emplace_back(e.peer, e.tag); },
        [&p, &rs](std::size_t step) {
          for (const Edge& w : rs.waits(step)) p.ref_acc |= edge_bit(w.peer, w.tag);
        });
  }
  const auto check = [&](int r) -> std::string {
    const RankPair& p = ranks[static_cast<std::size_t>(r)];
    const std::string at = "rank " + std::to_string(r) + ": ";
    if (p.sent != p.ref_sent) return at + "sends differ";
    const GroupWindow<>::Slot* slot = p.window->find(0);
    if (slot == nullptr || !slot->active) return "";  // nothing issued or recorded yet
    if (slot->step != p.ref->step()) return at + "steps differ";
    if (slot->acc != p.ref_acc) return at + "step consumption differs";
    if (slot->complete != p.ref->complete()) return at + "completion differs";
    std::vector<std::pair<int, std::uint32_t>> missing;
    for (const Edge& e : p.window->current_waits(*slot)) {
      if (!slot->has_arrived(e.id)) missing.emplace_back(e.peer, e.tag);
    }
    if (missing != p.ref->missing_waits()) return at + "missing waits differ";
    const RankSchedule& rs = g.ranks[static_cast<std::size_t>(r)];
    for (std::size_t s = 0; s < rs.step_count(); ++s) {
      for (const Edge& e : rs.sends(s)) {
        if (slot->has_sent(e.id) != p.ref->has_sent(e.peer, e.tag)) {
          return at + "has_sent differs";
        }
      }
    }
    return "";
  };
  const auto deliver = [&](const WireMsg& m) -> std::string {
    RankPair& p = ranks[static_cast<std::size_t>(m.dst)];
    const std::string at = "rank " + std::to_string(m.dst) + ": ";
    const Arrival got = p.window->on_arrival(0, m.src, m.tag, edge_bit(m.src, m.tag));
    const bool fresh = p.ref->on_arrival(m.src, m.tag);
    switch (got) {
      case Arrival::kAccepted:
      case Arrival::kDuplicate:
        if ((got == Arrival::kAccepted) != fresh) return at + "on_arrival return differs";
        break;
      case Arrival::kEarly:  // classified when start() replays it
        if (!fresh) ++p.early_repeats;
        break;
      case Arrival::kStale:
        if (!p.ref->complete()) return at + "stale before completion";
        break;
    }
    return check(m.dst);
  };
  const auto start = [&](int r) -> std::string {
    RankPair& p = ranks[static_cast<std::size_t>(r)];
    const int duplicates = p.window->start(0).duplicates;
    p.ref->start();
    // The replay stops once the operation completes, leaving later
    // buffered repeats uncounted.
    if (p.ref->complete() ? duplicates > p.early_repeats : duplicates != p.early_repeats) {
      return "rank " + std::to_string(r) + ": replayed duplicates differ";
    }
    return check(r);
  };

  std::vector<int> unstarted(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) unstarted[static_cast<std::size_t>(r)] = r;
  while (!unstarted.empty() || !wire.empty()) {
    const std::uint64_t roll = rng.next_below(10);
    std::string err;
    if (!unstarted.empty() && (wire.empty() || roll < 3)) {
      const auto pick = rng.next_below(unstarted.size());
      const int r = unstarted[pick];
      unstarted.erase(unstarted.begin() + static_cast<std::ptrdiff_t>(pick));
      err = start(r);
    } else if (roll == 3 && !delivered.empty()) {
      err = deliver(delivered[rng.next_below(delivered.size())]);  // retransmitted twin
    } else if (roll == 4) {
      // A message on no edge of the receiver's schedule.
      const int dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      err = deliver({static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))), dst,
                     0x7F0u + static_cast<std::uint32_t>(rng.next_below(4)), 0});
    } else if (!wire.empty()) {
      const auto pick = rng.next_below(wire.size());
      const WireMsg m = wire[pick];
      wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(pick));
      delivered.push_back(m);
      err = deliver(m);
    }
    if (!err.empty()) return err;
  }
  for (int r = 0; r < n; ++r) {
    if (!ranks[static_cast<std::size_t>(r)].window->find(0)->complete) {
      return "rank " + std::to_string(r) + " did not complete";
    }
  }
  return "";
}

TEST(NumberedExecutor, MatchesSetReferenceOnEveryPairInRandomOrder) {
  for (const auto kind : {OpKind::kBarrier, OpKind::kBcast, OpKind::kAllreduce,
                          OpKind::kAllgather, OpKind::kAlltoall}) {
    for (const Algorithm alg : coll::collective_algorithms_for(kind)) {
      for (int n = 1; n <= 33; ++n) {
        const GroupSchedule g = coll::make_collective_schedule(kind, n, 0, alg);
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          sim::Rng rng(seed * 1000 + static_cast<std::uint64_t>(n));
          const std::string err = compare_with_reference(g, rng);
          ASSERT_EQ(err, "") << to_string(kind) << "/" << to_string(alg) << " n=" << n
                             << " seed=" << seed;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qmb::coll
