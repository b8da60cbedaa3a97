#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "move_counter.hpp"

namespace qmb::sim {
namespace {

using namespace qmb::sim::literals;

TEST(Engine, ClockAdvancesToEventTimes) {
  Engine e;
  std::vector<std::int64_t> seen;
  e.schedule(5_us, [&] { seen.push_back(e.now().picos()); });
  e.schedule(1_us, [&] { seen.push_back(e.now().picos()); });
  EXPECT_EQ(e.run(), 2u);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{1'000'000, 5'000'000}));
  EXPECT_EQ(e.now(), SimTime(5'000'000));
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) e.schedule(1_us, recurse);
  };
  e.schedule(1_us, recurse);
  e.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(e.now(), SimTime(10 * 1'000'000));
}

TEST(Engine, ZeroDelayRunsAtCurrentTime) {
  Engine e;
  SimTime inner_time;
  e.schedule(3_us, [&] {
    e.schedule(SimDuration::zero(), [&] { inner_time = e.now(); });
  });
  e.run();
  EXPECT_EQ(inner_time, SimTime(3'000'000));
}

TEST(Engine, NegativeDelayThrows) {
  Engine e;
  EXPECT_THROW(e.schedule(SimDuration(-1), [] {}), std::invalid_argument);
}

TEST(Engine, ScheduleAtPastThrows) {
  Engine e;
  e.schedule(5_us, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(SimTime(1'000'000), [] {}), std::invalid_argument);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule(1_us, [&] { ++fired; });
  e.schedule(10_us, [&] { ++fired; });
  EXPECT_EQ(e.run_until(SimTime(5'000'000)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), SimTime(5'000'000));  // clock lands on the deadline
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilInclusiveOfDeadline) {
  Engine e;
  int fired = 0;
  e.schedule(5_us, [&] { ++fired; });
  e.run_until(SimTime(5'000'000));
  EXPECT_EQ(fired, 1);
}

TEST(Engine, RunUntilEmptyQueueAdvancesClock) {
  Engine e;
  EXPECT_EQ(e.run_until(SimTime(7'000'000)), 0u);
  EXPECT_EQ(e.now(), SimTime(7'000'000));
}

TEST(Engine, RunUntilPastDeadlineNeverRewindsClock) {
  Engine e;
  e.schedule(10_us, [] {});
  e.run();
  EXPECT_EQ(e.now(), SimTime(10'000'000));
  EXPECT_EQ(e.run_until(SimTime(3'000'000)), 0u);  // deadline already behind us
  EXPECT_EQ(e.now(), SimTime(10'000'000));
}

TEST(Engine, RunUntilFiresZeroDelayChainAtDeadline) {
  // An event exactly at the deadline may spawn zero-delay work, all of
  // which belongs to this run_until window.
  Engine e;
  int fired = 0;
  e.schedule(5_us, [&] {
    ++fired;
    e.schedule(SimDuration::zero(), [&] {
      ++fired;
      e.schedule(SimDuration::zero(), [&] { ++fired; });
    });
  });
  EXPECT_EQ(e.run_until(SimTime(5'000'000)), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.now(), SimTime(5'000'000));
}

TEST(Engine, RunUntilDeadlineBeforeFirstEvent) {
  Engine e;
  int fired = 0;
  e.schedule(10_us, [&] { ++fired; });
  EXPECT_EQ(e.run_until(SimTime(2'000'000)), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now(), SimTime(2'000'000));
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, RunUntilSkipsCancelledEvents) {
  Engine e;
  int fired = 0;
  e.schedule(1_us, [&] { ++fired; });
  const EventId victim = e.schedule(2_us, [&] { fired += 100; });
  e.schedule(3_us, [&] { ++fired; });
  EXPECT_TRUE(e.cancel(victim));
  EXPECT_EQ(e.run_until(SimTime(5'000'000)), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, ScheduleAcceptsMoveOnlyCallback) {
  // The event hot path stores a move-only callback type, so captures that
  // std::function would reject (unique_ptr) now work directly.
  Engine e;
  auto payload = std::make_unique<int>(99);
  int seen = 0;
  e.schedule(1_us, [payload = std::move(payload), &seen] { seen = *payload; });
  e.run();
  EXPECT_EQ(seen, 99);
}

TEST(Engine, CancelStopsScheduledEvent) {
  Engine e;
  int fired = 0;
  const EventId id = e.schedule(1_us, [&] { ++fired; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, StepFiresExactlyOne) {
  Engine e;
  int fired = 0;
  e.schedule(1_us, [&] { ++fired; });
  e.schedule(2_us, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
  EXPECT_EQ(fired, 2);
}

TEST(Engine, CountersTrackActivity) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule(1_us, [] {});
  EXPECT_EQ(e.events_scheduled(), 7u);
  e.run();
  EXPECT_EQ(e.events_fired(), 7u);
  EXPECT_TRUE(e.idle());
}

TEST(Engine, DeterministicTieBreakAcrossRuns) {
  // Two engines fed the same schedule produce identical firing orders.
  auto run_once = [] {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      e.schedule(SimDuration((i % 5) * 1'000'000), [&order, i] { order.push_back(i); });
    }
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, FiredCallbackReleasesCapturesBeforeNextEvent) {
  // Event A's callback, and with it A's copy of `token`, must be destroyed
  // before event B fires: on the sequential loop, and on a shard's drain
  // loop with both events in one domain and one window.
  auto check = [](Engine& e, int domain) {
    auto token = std::make_shared<int>(0);
    long count_at_b = -1;
    {
      Engine::DomainScope scope(e, domain);
      e.schedule(1_us, [token] { ++*token; });
      e.schedule(2_us, [&token, &count_at_b] { count_at_b = token.use_count(); });
    }
    e.run();
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(count_at_b, 1);
  };
  Engine sequential;
  check(sequential, 0);

  Engine sharded;
  sharded.enable_domains(2, 5_us);
  check(sharded, 1);
  EXPECT_EQ(sharded.windows_run(), 1u);
  EXPECT_EQ(sharded.domain_events_fired(1), 2u);
}

TEST(Engine, ScheduleMovesCallbackOnceInOnceOut) {
  // Three moves per event: the functor into the Callback, the Callback into
  // its queue slot, the slot into the fired event. schedule/schedule_at
  // forward by rvalue reference, so no hop adds a move.
  using testutil::MoveCounter;
  EXPECT_EQ(testutil::moves_until_fired(
                [](Engine& e, MoveCounter&& fn) { e.schedule(1_us, std::move(fn)); }),
            3);
  EXPECT_EQ(testutil::moves_until_fired([](Engine& e, MoveCounter&& fn) {
              e.schedule_at(SimTime(2'000'000), std::move(fn));
            }),
            3);
}

TEST(Engine, ShardedScheduleMovesCallbackOnceInOnceOut) {
  // The PDES hops (shard_push, shard_push_at, schedule_at_on) keep the
  // sequential path's count.
  using testutil::MoveCounter;
  EXPECT_EQ(testutil::moves_until_fired([](Engine& e, MoveCounter&& fn) {
              e.enable_domains(2, 1_us);
              Engine::DomainScope scope(e, 1);
              e.schedule(1_us, std::move(fn));
            }),
            3);
  EXPECT_EQ(testutil::moves_until_fired([](Engine& e, MoveCounter&& fn) {
              e.enable_domains(2, 1_us);
              Engine::DomainScope scope(e, 1);
              e.schedule_at(SimTime(2'000'000), std::move(fn));
            }),
            3);
  EXPECT_EQ(testutil::moves_until_fired([](Engine& e, MoveCounter&& fn) {
              e.enable_domains(2, 1_us);
              e.schedule_at_on(1, SimTime(3'000'000), std::move(fn));
            }),
            3);
}

TEST(Engine, CallbackExceptionReachesCallerWithWorkerThreads) {
  // A throwing callback ends its domain's window; the other domains finish
  // theirs, the pool is joined, and run() rethrows the lowest domain's
  // exception, whichever thread ran it. No later window opens.
  const auto thrown = [](Engine& e) -> std::string {
    try {
      e.run();
    } catch (const std::runtime_error& err) {
      return err.what();
    }
    return "nothing";
  };
  for (const int threads : {1, 2}) {
    Engine e;
    e.enable_domains(2, 5_us);
    e.set_threads(threads);
    bool window_finished = false;
    bool next_window = false;
    e.schedule_at_on(1, SimTime(1'000'000), [] { throw std::runtime_error("domain 1"); });
    e.schedule_at_on(0, SimTime(3'000'000), [&] { window_finished = true; });
    e.schedule_at_on(0, SimTime(20'000'000), [&] { next_window = true; });
    EXPECT_EQ(thrown(e), "domain 1") << threads << " threads";
    EXPECT_TRUE(window_finished);
    EXPECT_FALSE(next_window);

    Engine both;
    both.enable_domains(2, 5_us);
    both.set_threads(threads);
    both.schedule_at_on(1, SimTime(1'000'000), [] { throw std::runtime_error("domain 1"); });
    both.schedule_at_on(0, SimTime(2'000'000), [] { throw std::runtime_error("domain 0"); });
    EXPECT_EQ(thrown(both), "domain 0") << threads << " threads";
  }
}

}  // namespace
}  // namespace qmb::sim
