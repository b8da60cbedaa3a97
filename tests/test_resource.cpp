#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "move_counter.hpp"

namespace qmb::sim {
namespace {

using namespace qmb::sim::literals;

TEST(Resource, SerializesWork) {
  Engine e;
  Resource r(e);
  std::vector<std::int64_t> completions;
  r.exec(3_us, [&] { completions.push_back(e.now().picos()); });
  r.exec(2_us, [&] { completions.push_back(e.now().picos()); });
  e.run();
  // Second job starts only after the first finishes: 3us, then 3+2=5us.
  EXPECT_EQ(completions, (std::vector<std::int64_t>{3'000'000, 5'000'000}));
}

TEST(Resource, IdleResourceStartsImmediately) {
  Engine e;
  Resource r(e);
  SimTime done;
  e.schedule(10_us, [&] {
    r.exec(1_us, [&] { done = e.now(); });
  });
  e.run();
  EXPECT_EQ(done, SimTime(11'000'000));
}

TEST(Resource, ExecFromHonorsEarliest) {
  Engine e;
  Resource r(e);
  SimTime done;
  r.exec_from(SimTime(5'000'000), 2_us, [&] { done = e.now(); });
  e.run();
  EXPECT_EQ(done, SimTime(7'000'000));
}

TEST(Resource, ExecFromQueuesBehindBusy) {
  Engine e;
  Resource r(e);
  SimTime done;
  r.exec(10_us, nullptr);
  r.exec_from(SimTime(2'000'000), 1_us, [&] { done = e.now(); });
  e.run();
  EXPECT_EQ(done, SimTime(11'000'000));  // waits for the 10us holder
}

TEST(Resource, ReturnsCompletionTime) {
  Engine e;
  Resource r(e);
  EXPECT_EQ(r.exec(4_us, nullptr), SimTime(4'000'000));
  EXPECT_EQ(r.exec(1_us, nullptr), SimTime(5'000'000));
  EXPECT_EQ(r.free_at(), SimTime(5'000'000));
}

TEST(Resource, TracksUtilization) {
  Engine e;
  Resource r(e);
  r.occupy(3_us);
  r.occupy(2_us);
  e.run();
  EXPECT_EQ(r.total_busy(), 5_us);
  EXPECT_EQ(r.jobs_executed(), 2u);
}

TEST(Resource, InterleavedWithEngineTime) {
  Engine e;
  Resource r(e);
  std::vector<std::int64_t> completions;
  // Job posted at t=0 for 5us; another posted at t=2 for 1us must wait.
  r.exec(5_us, [&] { completions.push_back(e.now().picos()); });
  e.schedule(2_us, [&] {
    r.exec(1_us, [&] { completions.push_back(e.now().picos()); });
  });
  e.run();
  EXPECT_EQ(completions, (std::vector<std::int64_t>{5'000'000, 6'000'000}));
}

TEST(Resource, GapResetsQueue) {
  Engine e;
  Resource r(e);
  std::vector<std::int64_t> completions;
  r.exec(1_us, [&] { completions.push_back(e.now().picos()); });
  e.schedule(10_us, [&] {
    r.exec(1_us, [&] { completions.push_back(e.now().picos()); });
  });
  e.run();
  // After going idle, the second job starts at its post time, not at 1us.
  EXPECT_EQ(completions, (std::vector<std::int64_t>{1'000'000, 11'000'000}));
}

TEST(Resource, ExecMovesCallbackOnceInOnceOut) {
  // Three moves end to end: the functor into the Callback, the Callback
  // into its queue slot, and the slot into the fired event. Every hop on
  // exec -> exec_from -> schedule_at -> EventQueue::push takes the callback
  // by rvalue reference; a by-value hop anywhere adds a move here.
  using testutil::MoveCounter;
  EXPECT_EQ(testutil::moves_until_fired([](Engine& e, MoveCounter&& fn) {
              Resource(e).exec(1_us, std::move(fn));
            }),
            3);
  EXPECT_EQ(testutil::moves_until_fired([](Engine& e, MoveCounter&& fn) {
              Resource(e).exec_from(SimTime(5'000'000), 1_us, std::move(fn));
            }),
            3);
}

}  // namespace
}  // namespace qmb::sim
