#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <vector>

namespace qmb::sim {
namespace {

SimTime at_us(std::int64_t us) { return SimTime(us * 1'000'000); }

// A sharded event's full ordering key as the tie-break contract defines it;
// seq is the push index.
struct Key {
  SimTime at;
  SchedPath path;
  std::uint64_t lineage = 0;
  int seq = 0;

  friend bool operator<(const Key& a, const Key& b) {
    return std::tie(a.at, a.path.hops, a.lineage, a.seq) <
           std::tie(b.at, b.path.hops, b.lineage, b.seq);
  }
};

// Pushes `k`; the event appends its seq to `order` when it fires.
EventId push_keyed(EventQueue& q, const Key& k, std::vector<int>& order) {
  return q.push(k.at, [&order, seq = k.seq] { order.push_back(seq); }, k.path.hops[0],
                k.lineage, &k.path);
}

// The seqs of `keys` in contract order.
std::vector<int> contract_order(std::vector<Key> keys) {
  std::sort(keys.begin(), keys.end());
  std::vector<int> seqs;
  for (const Key& k : keys) seqs.push_back(k.seq);
  return seqs;
}

// A key at `at` whose path and lineage take few distinct values, so equal
// fire times tie on every level of the key.
Key scrambled_key(SimTime at, int seq) {
  return Key{at, SchedPath{{at_us(seq * 7 % 5), at_us(seq * 11 % 3)}},
             static_cast<std::uint64_t>(seq * 13 % 4), seq};
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(at_us(30), [&] { order.push_back(3); });
  q.push(at_us(10), [&] { order.push_back(1); });
  q.push(at_us(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.push(at_us(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  q.push(at_us(1), [&] { ++fired; });
  const EventId victim = q.push(at_us(2), [&] { fired += 100; });
  q.push(at_us(3), [&] { ++fired; });
  EXPECT_TRUE(q.cancel(victim));
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(at_us(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  const EventId id = q.push(at_us(1), [] {});
  q.pop().cb();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  const EventId a = q.push(at_us(1), [] {});
  q.push(at_us(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelledTop) {
  EventQueue q;
  const EventId first = q.push(at_us(1), [] {});
  q.push(at_us(5), [] {});
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_EQ(*q.next_time(), at_us(1));
  q.cancel(first);
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_EQ(*q.next_time(), at_us(5));
  EXPECT_EQ(q.heap_entries(), 1u);  // the cancelled head was popped, not scanned past
}

TEST(EventQueue, NextTimeEmptyIsNullopt) {
  EventQueue q;
  EXPECT_FALSE(q.next_time().has_value());
}

TEST(EventQueue, PopSkipsTombstones) {
  EventQueue q;
  const EventId a = q.push(at_us(1), [] {});
  const EventId b = q.push(at_us(2), [] {});
  int fired = 0;
  q.push(at_us(3), [&] { fired = 3; });
  q.cancel(a);
  q.cancel(b);
  const auto f = q.pop();
  EXPECT_EQ(f.at, at_us(3));
  f.cb();
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MassCancelCompactsHeap) {
  // Cancelling most of a large heap must sweep the dead entries out; the
  // compaction invariant is that past the floor, dead entries never
  // outnumber live ones.
  EventQueue q;
  std::vector<EventId> ids;
  ids.reserve(1000);
  for (int i = 0; i < 1000; ++i) ids.push_back(q.push(at_us(100 + i), [] {}));
  for (int i = 0; i < 990; ++i) EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(q.size(), 10u);
  EXPECT_LE(q.heap_entries(), 64u);  // swept, not just tombstoned
  int fired = 0;
  while (!q.empty()) {
    auto f = q.pop();
    f.cb();
    ++fired;
  }
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, SmallHeapSkipsCompaction) {
  // Below the compaction floor, cancels just tombstone — no sweep churn.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(q.push(at_us(i + 1), [] {}));
  for (int i = 0; i < 19; ++i) q.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.heap_entries(), 20u);
}

TEST(EventQueue, StaleIdAfterSlotReuseFails) {
  // A cancelled id's slot gets recycled for the next push; the stale id's
  // generation no longer matches, so it can never cancel the new event.
  EventQueue q;
  const EventId stale = q.push(at_us(1), [] {});
  EXPECT_TRUE(q.cancel(stale));
  int fired = 0;
  const EventId fresh = q.push(at_us(2), [&] { ++fired; });
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.cancel(fresh));  // already fired
}

TEST(EventQueue, StaleIdAfterPopAndSlotReuseFails) {
  EventQueue q;
  const EventId popped = q.push(at_us(1), [] {});
  q.pop().cb();
  int fired = 0;
  q.push(at_us(2), [&] { ++fired; });  // reuses popped's slot
  EXPECT_FALSE(q.cancel(popped));
  q.pop().cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelRePushStress) {
  // Timeout-heavy protocol pattern: arm a batch of timeouts, cancel nearly
  // all of them (acks arrived), re-arm, repeat. The heap must stay bounded
  // and the survivors must all fire.
  EventQueue q;
  int fired = 0;
  std::vector<EventId> timeouts;
  for (int round = 0; round < 100; ++round) {
    timeouts.clear();
    for (int i = 0; i < 100; ++i) {
      timeouts.push_back(q.push(at_us(1'000'000 + round * 100 + i), [&] { ++fired; }));
    }
    // 99 of 100 timeouts are cancelled by their acks.
    for (int i = 0; i < 99; ++i) EXPECT_TRUE(q.cancel(timeouts[static_cast<std::size_t>(i)]));
    EXPECT_LE(q.heap_entries(), std::max<std::size_t>(64, 2 * q.size()));
  }
  EXPECT_EQ(q.size(), 100u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(q.total_scheduled(), 100u * 100u);
}

TEST(EventQueue, MoveOnlyAndLargeCapturesWork) {
  // Callbacks beyond the inline buffer fall back to the heap; move-only
  // captures are fine because the callback type is move-only itself.
  EventQueue q;
  auto big = std::make_unique<std::array<int, 64>>();
  for (int i = 0; i < 64; ++i) (*big)[static_cast<std::size_t>(i)] = i;
  std::array<char, 128> blob{};
  blob[0] = 42;
  blob[127] = 7;
  int sum = 0;
  q.push(at_us(1), [big = std::move(big), &sum] { sum += (*big)[63]; });
  q.push(at_us(2), [blob, &sum] { sum += blob[0] + blob[127]; });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(sum, 63 + 42 + 7);
}

TEST(EventQueue, StressInterleavedPushCancelPop) {
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      ids.push_back(q.push(at_us(round * 100 + i), [&] { ++fired; }));
    }
    // Cancel every third pending id.
    for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
    ids.clear();
    while (!q.empty() && q.size() > 5) q.pop().cb();
  }
  while (!q.empty()) q.pop().cb();
  EXPECT_GT(fired, 0);
  EXPECT_EQ(q.total_scheduled(), 50u * 20u);
}

// The (time, insertion) tie-break is a contract the PDES engine builds on
// (see the header comment): equal-key events fire exactly in push() order,
// cancellation never reorders survivors, and the extended sharded key
// (at, path, lineage, seq) degenerates to (at, seq) when the extras are
// left at their zero defaults.
TEST(TieBreakContract, SurvivorsKeepInsertionOrderAcrossCancels) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.push(at_us(7), [&order, i] { order.push_back(i); }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);  // evens die
  while (!q.empty()) q.pop().cb();
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(2 * i + 1));
  }
}

TEST(TieBreakContract, ShardedKeyOrdersBeforeInsertion) {
  // sched (path.hops[0]) dominates seq: a later push with an earlier sched
  // fires first — this is how a sharded queue replays the sequential
  // insertion order for events pushed out-of-band at window boundaries.
  EventQueue q;
  std::vector<int> order;
  q.push(at_us(9), [&] { order.push_back(0); }, at_us(5));
  q.push(at_us(9), [&] { order.push_back(1); }, at_us(3));
  // Equal sched: deeper path hops (the ancestors' scheduling instants)
  // decide before lineage and before insertion order.
  const SchedPath deep_late{{at_us(3), at_us(2)}};
  const SchedPath deep_early{{at_us(3), at_us(1)}};
  q.push(at_us(9), [&] { order.push_back(2); }, at_us(3), 7, &deep_late);
  q.push(at_us(9), [&] { order.push_back(3); }, at_us(3), 6, &deep_early);
  // Equal path: the anchor lineage stamp decides, ascending.
  const SchedPath flat{{at_us(4)}};
  q.push(at_us(9), [&] { order.push_back(4); }, at_us(4), 9, &flat);
  q.push(at_us(9), [&] { order.push_back(5); }, at_us(4), 8, &flat);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 5, 4, 0}));
}

TEST(TieBreakContract, RecycledSlotOrdersByItsNewKey) {
  // Slots freed by fired and by cancelled events are re-keyed by their next
  // occupants: no path or lineage of a previous occupant may leak into the
  // order, or the echo, of the event that inherits its slot.
  EventQueue q;
  const SchedPath stale{{at_us(9), at_us(9), at_us(9), at_us(9)}};
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(q.push(at_us(1 + i), [] {}, at_us(9), 99, &stale));
  for (std::size_t i = 0; i < 4; ++i) q.cancel(ids[i]);
  for (int i = 0; i < 4; ++i) q.pop();  // drops the four corpses, fires the rest
  ASSERT_TRUE(q.empty());

  // All eight slots are free, so every push below lands in a recycled one.
  std::vector<int> order;
  const SchedPath early{{at_us(1)}};
  const SchedPath mid{{at_us(4)}};
  q.push(at_us(20), [&] { order.push_back(0); }, at_us(4), 5, &mid);
  q.push(at_us(20), [&] { order.push_back(1); }, at_us(1), 5, &early);
  q.push(at_us(20), [&] { order.push_back(2); }, at_us(4), 4, &mid);
  q.push(at_us(20), [&] { order.push_back(3); });  // sequential push: all-zero key
  const std::vector<std::pair<SchedPath, std::uint64_t>> echoes{
      {SchedPath{}, 0}, {early, 5}, {mid, 4}, {mid, 5}};
  for (const auto& [path, lineage] : echoes) {
    const EventQueue::Fired f = q.pop();
    EXPECT_EQ(f.path, path);
    EXPECT_EQ(f.sched, path.hops[0]);
    EXPECT_EQ(f.lineage, lineage);
    f.cb();
  }
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2, 0}));
}

TEST(TieBreakContract, CompactionKeepsEqualTimeSurvivorsInKeyOrder) {
  // A mass cancel past the 64-entry floor sweeps the heap and re-heapifies;
  // the equal-time survivors, and events pushed into the swept slots
  // afterwards, must still pop in (path, lineage, seq) order.
  EventQueue q;
  std::vector<int> order;
  std::vector<Key> live;
  std::vector<EventId> ids;
  for (int i = 0; i < 300; ++i) {
    const Key k = scrambled_key(at_us(50), i);
    ids.push_back(push_keyed(q, k, order));
    if (i % 5 == 0) live.push_back(k);
  }
  for (int i = 0; i < 300; ++i) {
    if (i % 5 != 0) q.cancel(ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(q.size(), 60u);
  EXPECT_LE(q.heap_entries(), 2 * q.size());  // swept, not just tombstoned
  for (int i = 300; i < 340; ++i) {
    live.push_back(scrambled_key(at_us(50), i));
    push_keyed(q, live.back(), order);
  }
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, contract_order(live));
}

TEST(TieBreakContract, NextTimePruningKeepsKeyOrder) {
  // Cancel the events that sort first at one instant; next_time() pops
  // their entries off the head, and the survivors plus events pushed into
  // the freed slots must still fire in (path, lineage, seq) order.
  EventQueue q;
  std::vector<int> order;
  std::vector<Key> keys;
  std::vector<EventId> ids;
  for (int i = 0; i < 40; ++i) {
    keys.push_back(scrambled_key(at_us(50), i));
    ids.push_back(push_keyed(q, keys.back(), order));
  }
  const std::vector<int> sorted = contract_order(keys);
  std::vector<Key> live;
  for (std::size_t r = 0; r < sorted.size(); ++r) {
    const auto seq = static_cast<std::size_t>(sorted[r]);
    if (r < 10) {
      q.cancel(ids[seq]);
    } else {
      live.push_back(keys[seq]);
    }
  }
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_EQ(*q.next_time(), at_us(50));
  EXPECT_EQ(q.heap_entries(), 30u);
  for (int i = 40; i < 50; ++i) {
    live.push_back(scrambled_key(at_us(50), i));
    push_keyed(q, live.back(), order);
  }
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, contract_order(live));
}

TEST(TieBreakContract, RandomPushCancelPopMatchesSortedReference) {
  // Model check: interleaved pushes, cancels, peeks and pops over a few
  // fire times and a few path/lineage values (so most comparisons tie on
  // time) must pop exactly the minimum of a sorted reference set. Heaps
  // grow past the compaction floor and shrink again, recycling slots
  // through sweeps, head drops and fires. The first kUnkeyedSteps steps
  // push all-zero keys through the sequential push(at, cb), so the queue
  // orders by (at, seq) alone until the first keyed push switches it to
  // the full key over a heap of zero-keyed survivors.
  constexpr int kUnkeyedSteps = 2000;
  EventQueue q;
  std::mt19937 rng(12345);
  std::set<Key> ref;
  std::vector<std::pair<Key, EventId>> pending;
  std::vector<int> order;
  int seq = 0;
  auto draw = [&](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
  for (int step = 0; step < 20000; ++step) {
    const int phase = (step / 2000) % 2;  // alternately grow and drain
    const int op = draw(100);
    if (op < (phase == 0 ? 55 : 25)) {
      Key k{at_us(draw(4)), SchedPath{}, 0, seq++};
      if (step < kUnkeyedSteps) {
        pending.emplace_back(k, q.push(k.at, [&order, s = k.seq] { order.push_back(s); }));
      } else {
        k.path = SchedPath{{at_us(draw(3)), at_us(draw(2)), at_us(draw(2))}};
        k.lineage = static_cast<std::uint64_t>(draw(3));
        pending.emplace_back(k, push_keyed(q, k, order));
      }
      ref.insert(k);
    } else if (op < (phase == 0 ? 75 : 60) && !pending.empty()) {
      const auto victim = static_cast<std::size_t>(draw(static_cast<int>(pending.size())));
      if (q.cancel(pending[victim].second)) ref.erase(pending[victim].first);
      pending[victim] = pending.back();
      pending.pop_back();
    } else if (op < 80) {
      const auto t = q.next_time();
      ASSERT_EQ(t.has_value(), !ref.empty());
      if (t) {
        ASSERT_EQ(*t, ref.begin()->at);
      }
    } else if (!ref.empty()) {
      q.pop().cb();
      ASSERT_EQ(order.back(), ref.begin()->seq) << "step " << step;
      ref.erase(ref.begin());
    }
    ASSERT_EQ(q.size(), ref.size());
  }
}

TEST(TieBreakContract, RadixLevelsMatchSortedReference) {
  // Model check across the radix buckets: fire times spread over ~40 bits of
  // picoseconds, so pushes land in every bucket and refills redistribute
  // them level by level. Peeks alternate with pop_due deadlines that stop
  // between the due instant and the next pending one, and pushes land
  // between the last fired and the last peeked time, as a PDES
  // coordinator's injections do after run_windows' next_time() peek. The
  // queue turns keyed partway through. Every pop, peek and cancel must
  // agree with a sorted reference set.
  constexpr int kUnkeyedSteps = 10000;
  EventQueue q;
  std::mt19937_64 rng(4040);
  std::set<Key> ref;
  std::vector<std::pair<Key, EventId>> pending;
  std::vector<int> order;
  int seq = 0;
  SimTime fired = SimTime::zero();   // the last fired time; no push goes below it
  SimTime peeked = SimTime::zero();  // the last next_time() answer
  auto draw = [&](std::uint64_t n) { return rng() % n; };
  // A distance whose bit width is drawn first, so every level is reached.
  auto distance = [&] {
    return picoseconds(static_cast<std::int64_t>(rng() & ((std::uint64_t{1} << draw(41)) - 1)));
  };
  // The earliest pending time after ref's head time, or max.
  auto next_distinct = [&] {
    const SimTime head = ref.begin()->at;
    for (const Key& k : ref) {
      if (k.at != head) return k.at;
    }
    return SimTime::max();
  };
  for (int step = 0; step < 40000; ++step) {
    const int phase = (step / 4000) % 2;  // alternately grow and drain
    const auto op = draw(100);
    if (op < (phase == 0 ? 45u : 25u)) {
      Key k{fired + distance(), SchedPath{}, 0, seq++};
      if (op < 8 && peeked > fired) {
        k.at = fired + picoseconds(static_cast<std::int64_t>(draw(
                           static_cast<std::uint64_t>((peeked - fired).picos()))));
      } else if (op < 16 && !ref.empty()) {
        k.at = std::next(ref.begin(), static_cast<std::ptrdiff_t>(draw(ref.size())))->at;
      }
      if (step < kUnkeyedSteps) {
        pending.emplace_back(k, q.push(k.at, [&order, s = k.seq] { order.push_back(s); }));
      } else {
        k.path = SchedPath{{at_us(static_cast<std::int64_t>(draw(3))),
                            at_us(static_cast<std::int64_t>(draw(2)))}};
        k.lineage = draw(3);
        pending.emplace_back(k, push_keyed(q, k, order));
      }
      ref.insert(k);
    } else if (op < (phase == 0 ? 60u : 45u) && !pending.empty()) {
      const auto victim = static_cast<std::size_t>(draw(pending.size()));
      ASSERT_EQ(q.cancel(pending[victim].second), ref.erase(pending[victim].first) == 1);
      ASSERT_LE(q.heap_entries(), std::max<std::size_t>(64, 2 * q.size()));
      pending[victim] = pending.back();
      pending.pop_back();
    } else if (op < 70) {
      const auto t = q.next_time();
      ASSERT_EQ(t.has_value(), !ref.empty());
      if (t) {
        ASSERT_EQ(*t, ref.begin()->at);
        peeked = *t;
      }
    } else {
      SimTime deadline = fired + distance();
      if (!ref.empty()) {
        const SimTime head = ref.begin()->at;
        const SimTime next = next_distinct();
        if (op < 85 && next != SimTime::max()) {
          deadline = head + picoseconds(static_cast<std::int64_t>(
                                draw(static_cast<std::uint64_t>((next - head).picos()))));
        } else if (op < 90) {
          deadline = head - picoseconds(1);
        }
      }
      const bool due = !ref.empty() && ref.begin()->at <= deadline;
      auto f = q.pop_due(deadline);
      ASSERT_EQ(f.has_value(), due) << "step " << step;
      if (f) {
        f->cb();
        ASSERT_EQ(f->at, ref.begin()->at);
        ASSERT_EQ(order.back(), ref.begin()->seq) << "step " << step;
        fired = f->at;
        ref.erase(ref.begin());
      }
    }
    ASSERT_EQ(q.size(), ref.size());
  }
}

TEST(TieBreakContract, PopEchoesPathAndLineage) {
  EventQueue q;
  const SchedPath p{{at_us(2), at_us(1)}};
  q.push(at_us(5), [] {}, at_us(2), 42, &p);
  const EventQueue::Fired f = q.pop();
  EXPECT_EQ(f.sched, at_us(2));
  EXPECT_EQ(f.lineage, 42u);
  EXPECT_EQ(f.path, p);
}

}  // namespace
}  // namespace qmb::sim
