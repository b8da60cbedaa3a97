// Unit tests of coll::GroupWindow, the two-deep operation window every
// collective engine shares.
#include "core/group_window.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace qmb::coll {
namespace {

struct Sent {
  std::uint32_t seq;
  Edge edge;
  std::int64_t value;
};

struct Harness {
  using Window = GroupWindow<>;

  GroupSchedule schedule;
  std::vector<Sent> sent;
  std::vector<std::pair<std::uint32_t, std::int64_t>> completed;
  std::vector<std::string> log;  // hook calls, in order
  std::unique_ptr<Window> window;

  explicit Harness(int n, int rank, OpKind kind = OpKind::kBarrier,
                   Algorithm alg = Algorithm::kDissemination) {
    schedule = make_barrier_schedule(alg, n);
    window = std::make_unique<Window>(
        schedule.ranks[static_cast<std::size_t>(rank)], kind, ReduceOp::kSum,
        Window::Hooks{
            .send =
                [this](Window::Slot& s, const Edge& e) {
                  sent.push_back({s.seq, e, s.acc});
                },
            .complete =
                [this](Window::Slot& s) {
                  completed.emplace_back(s.seq, s.acc);
                  log.push_back("complete " + std::to_string(s.seq));
                },
            .pre_start =
                [this](Window::Slot& s) { log.push_back("pre_start " + std::to_string(s.seq)); },
        });
  }

  /// Completes operation `seq` at rank 0 of a 4-rank dissemination barrier.
  void finish(std::uint32_t seq) {
    window->on_arrival(seq, 3, 0);
    window->on_arrival(seq, 2, 1);
  }
};

TEST(OpWindow, SequentialOperationsComplete) {
  Harness h(4, 0);
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    EXPECT_EQ(h.window->next_seq(), seq);
    h.window->start();
    h.finish(seq);
    ASSERT_EQ(h.completed.size(), seq + 1);
    EXPECT_EQ(h.completed.back().first, seq);
    ASSERT_NE(h.window->find(seq), nullptr);
    EXPECT_TRUE(h.window->find(seq)->complete);
  }
}

TEST(OpWindow, EarlyArrivalForNextOperationBuffered) {
  Harness h(4, 0);
  h.window->start();
  // Messages for operation 1 land while operation 0 is still running.
  h.finish(1);
  EXPECT_TRUE(h.completed.empty());
  h.finish(0);
  ASSERT_EQ(h.completed.size(), 1u);
  // Operation 1 completes instantly from the buffer.
  h.window->start();
  ASSERT_EQ(h.completed.size(), 2u);
  EXPECT_EQ(h.completed[1].first, 1u);
}

TEST(OpWindow, StaleArrivalIgnored) {
  Harness h(4, 0);
  h.window->start();
  h.finish(0);
  h.window->start();  // seq 1
  // A late retransmission for completed operation 0.
  h.window->on_arrival(0, 3, 0);
  EXPECT_EQ(h.completed.size(), 1u);  // no double completion
}

TEST(OpWindow, OvertakenWindowThrows) {
  Harness h(4, 0);
  h.window->start();  // seq 0, incomplete, occupies slot 0
  // seq 2 maps to the same slot while it is busy: protocol violation.
  EXPECT_THROW(h.window->on_arrival(2, 3, 0), std::logic_error);
}

TEST(OpWindow, DuplicateArrivalHarmless) {
  Harness h(4, 0, OpKind::kAllreduce);
  h.window->start(10);
  h.window->on_arrival(0, 3, 0, 5);
  h.window->on_arrival(0, 3, 0, 5);  // retransmission
  h.window->on_arrival(0, 2, 1, 7);
  ASSERT_EQ(h.completed.size(), 1u);
  EXPECT_EQ(h.completed[0].second, 22);  // 10 + 5 + 7, no double count
}

TEST(OpWindow, DuplicateArrivalKeepsFirstValue) {
  // A retransmitted twin carrying a different value must not replace the
  // first one, whether the pair lands while the operation runs or both
  // land before it starts.
  Harness h(4, 0, OpKind::kAllreduce);
  h.window->start(10);
  EXPECT_EQ(h.window->on_arrival(0, 3, 0, 5), Arrival::kAccepted);
  EXPECT_EQ(h.window->on_arrival(0, 3, 0, 500), Arrival::kDuplicate);
  EXPECT_EQ(h.window->on_arrival(0, 2, 1, 7), Arrival::kAccepted);
  ASSERT_EQ(h.completed.size(), 1u);
  EXPECT_EQ(h.completed[0].second, 22);  // 10 + 5 + 7

  EXPECT_EQ(h.window->on_arrival(1, 3, 0, 6), Arrival::kEarly);
  EXPECT_EQ(h.window->on_arrival(1, 3, 0, 600), Arrival::kDuplicate);
  h.window->start(20);
  EXPECT_EQ(h.window->on_arrival(1, 2, 1, 8), Arrival::kAccepted);
  ASSERT_EQ(h.completed.size(), 2u);
  EXPECT_EQ(h.completed[1].second, 34);  // 20 + 6 + 8
}

TEST(OpWindow, EarlyValueNotFoldedIntoSameStepSend) {
  // Rank 0 of a 4-rank PE allreduce: step-0 partner is rank 1. If rank 1's
  // value arrives before we start, our step-0 send to rank 1 must still
  // carry only our own contribution.
  Harness h(4, 0, OpKind::kAllreduce, Algorithm::kPairwiseExchange);
  h.window->on_arrival(0, 1, 0, 100);  // partner's value, early
  h.window->start(1);
  ASSERT_GE(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].edge.peer, 1);
  EXPECT_EQ(h.sent[0].value, 1);  // own value only
  // The step-1 send to rank 2 carries the combined pair value.
  ASSERT_GE(h.sent.size(), 2u);
  EXPECT_EQ(h.sent[1].edge.peer, 2);
  EXPECT_EQ(h.sent[1].value, 101);
}

TEST(OpWindow, NextSeqAdvances) {
  Harness h(2, 0);
  EXPECT_EQ(h.window->next_seq(), 0u);
  h.window->start();
  EXPECT_EQ(h.window->next_seq(), 1u);
}

TEST(GroupWindow, AcceptedArrivalIsReportedOnce) {
  Harness h(4, 0);
  h.window->start();
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kAccepted);
  EXPECT_EQ(h.window->on_arrival(0, 2, 1), Arrival::kAccepted);
  EXPECT_EQ(h.completed.size(), 1u);
}

TEST(GroupWindow, DuplicateArrivalIsReportedOnce) {
  Harness h(4, 0);
  h.window->start();
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kAccepted);
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kDuplicate);
  EXPECT_EQ(h.window->on_arrival(0, 2, 1), Arrival::kAccepted);
}

TEST(GroupWindow, EarlyArrivalIsReportedOnceAndReplayedSilently) {
  Harness h(4, 0);
  // Before this rank starts (the arrival claims the slot), and for the
  // next operation while this one runs: both early.
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kEarly);
  EXPECT_TRUE(h.window->find(0)->has_arrived(h.window->schedule().find_edge(3, 0)));
  EXPECT_EQ(h.window->next_seq(), 0u);
  h.window->start();
  // start() consumed the recorded step-0 wait and entered step 1.
  EXPECT_EQ(h.window->find(0)->step, 1u);
  EXPECT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.window->on_arrival(1, 3, 0), Arrival::kEarly);
  EXPECT_EQ(h.window->on_arrival(0, 2, 1), Arrival::kAccepted);
  EXPECT_EQ(h.completed.size(), 1u);
}

TEST(GroupWindow, ReplayCountsBufferedDuplicates) {
  Harness h(4, 0);
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kEarly);
  // A retransmitted twin is a duplicate when it lands, started or not.
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kDuplicate);
  h.window->start();
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kDuplicate);
}

TEST(GroupWindow, StartCompletesFromRecordedArrivals) {
  // Every wait, then a twin of the first, lands before this rank starts:
  // start() completes the operation after pre_start, and the twin that sat
  // behind the completing arrival was counted when it landed.
  Harness h(4, 0);
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kEarly);
  EXPECT_EQ(h.window->on_arrival(0, 2, 1), Arrival::kEarly);
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kDuplicate);
  h.window->start();
  EXPECT_EQ(h.log, (std::vector<std::string>{"pre_start 0", "complete 0"}));
  EXPECT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.window->on_arrival(0, 2, 1), Arrival::kStale);
}

TEST(GroupWindow, StaleArrivalIsReportedOnce) {
  Harness h(4, 0);
  h.window->start();
  h.finish(0);
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kStale);  // slot still bound, complete
  h.window->start();
  h.finish(1);
  h.window->start();  // seq 2 recycles operation 0's slot
  ASSERT_NE(h.window->find(2), nullptr);
  EXPECT_EQ(h.window->find(0), nullptr);
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kStale);  // slot now holds seq 2
  EXPECT_EQ(h.completed.size(), 2u);
}

}  // namespace
}  // namespace qmb::coll
