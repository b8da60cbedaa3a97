// The NIC group engine's contract, checked once on each substrate's NIC
// model (Myrinet's collective engine, the Elan3 NIC and the IB HCA): group
// registration checks, arrivals before the host enters, and the two-deep
// operation window.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/cluster.hpp"

namespace qmb {

// Each substrate: its cluster, the group engine on node i's NIC, and the
// metric names that engine counts under. Outside the anonymous namespace,
// so the type names ctest prints stay short.
struct Myrinet {
  static constexpr const char* kEarly = "coll.early_buffered";
  static constexpr const char* kDuplicates = "coll.duplicates";
  static constexpr const char* kOps = "coll.ops_completed";
  using Cluster = core::MyriCluster;
  using Desc = myri::GroupDesc;
  static auto make(sim::Engine& e, int n) {
    return std::make_unique<Cluster>(e, myri::lanaixp_cluster(), n);
  }
  static auto& groups(Cluster& c, int i) { return c.node(i).coll().groups(); }
};

struct Quadrics {
  static constexpr const char* kEarly = "elan.early_buffered";
  static constexpr const char* kOps = "elan.barrier_ops_completed";
  using Cluster = core::ElanCluster;
  using Desc = coll::GroupDesc;
  static auto make(sim::Engine& e, int n) {
    return std::make_unique<Cluster>(e, elan::elan3_cluster(), n);
  }
  static auto& groups(Cluster& c, int i) { return c.node(i).nic().groups(); }
};

struct InfiniBand {
  static constexpr const char* kEarly = "ib.early_buffered";
  static constexpr const char* kDuplicates = "ib.duplicates_dropped";
  static constexpr const char* kOps = "ib.ops_completed";
  using Cluster = core::IbCluster;
  using Desc = coll::GroupDesc;
  static auto make(sim::Engine& e, int n) {
    return std::make_unique<Cluster>(e, ib::ib_cluster(), n);
  }
  static auto& groups(Cluster& c, int i) { return c.node(i).hca().groups(); }
};

namespace {

template <typename S>
class NicGroupEngine : public ::testing::Test {
 protected:
  void build(int n) {
    n_ = n;
    cluster_ = S::make(engine_, n);
  }
  auto& groups(int i) { return S::groups(*cluster_, i); }

  /// Rank `rank`'s descriptor of a dissemination barrier over all nodes.
  typename S::Desc desc(std::uint32_t gid, int rank) const {
    std::vector<int> ident(static_cast<std::size_t>(n_));
    std::iota(ident.begin(), ident.end(), 0);
    typename S::Desc d;
    d.group_id = gid;
    d.my_rank = rank;
    d.rank_to_node = coll::make_placement(ident);
    d.schedule = std::make_shared<const coll::GroupSchedule>(
        coll::make_barrier_schedule(coll::Algorithm::kDissemination, n_));
    return d;
  }
  void make_group(std::uint32_t gid) {
    for (int r = 0; r < n_; ++r) groups(r).create_group(desc(gid, r));
  }
  std::uint64_t counter(const char* name, int node) {
    return engine_.metrics().counter(name, node).value();
  }

  sim::Engine engine_;
  int n_ = 0;
  std::unique_ptr<typename S::Cluster> cluster_;
};

using Substrates = ::testing::Types<Myrinet, Quadrics, InfiniBand>;
TYPED_TEST_SUITE(NicGroupEngine, Substrates);

TYPED_TEST(NicGroupEngine, DuplicateGroupIdRejected) {
  this->build(2);
  this->make_group(1);
  EXPECT_THROW(this->groups(0).create_group(this->desc(1, 0)), std::invalid_argument);
}

TYPED_TEST(NicGroupEngine, OutOfRangeRankRejected) {
  this->build(2);
  for (const int rank : {-1, 2, 5}) {
    EXPECT_THROW(this->groups(0).create_group(this->desc(9, rank)), std::invalid_argument)
        << "my_rank " << rank;
  }
}

TYPED_TEST(NicGroupEngine, EarlyArrivalWaitsForTheHost) {
  this->build(2);
  this->make_group(1);
  bool done0 = false, done1 = false;
  this->groups(0).collective_enter(1, 0, [&](std::int64_t) { done0 = true; });
  // Well inside Myrinet's NACK timeout, long after rank 0's message landed.
  this->engine_.run_until(sim::SimTime::zero() + sim::microseconds(100));
  EXPECT_FALSE(done0);  // its peer has not entered
  EXPECT_EQ(this->counter(TypeParam::kEarly, 1), 1u);
  EXPECT_EQ(this->counter(TypeParam::kEarly, 0), 0u);
  this->groups(1).collective_enter(1, 0, [&](std::int64_t) { done1 = true; });
  this->engine_.run();
  EXPECT_TRUE(done0);
  EXPECT_TRUE(done1);
}

TYPED_TEST(NicGroupEngine, ConsecutiveBarriersRecycleTheWindow) {
  this->build(4);
  this->make_group(1);
  int completions = 0;
  std::function<void(int, int)> loop = [&](int rank, int remaining) {
    this->groups(rank).collective_enter(1, 0, [&, rank, remaining](std::int64_t) {
      ++completions;
      if (remaining > 1) {
        this->engine_.schedule(sim::SimDuration::zero(),
                               [&loop, rank, remaining] { loop(rank, remaining - 1); });
      }
    });
  };
  for (int r = 0; r < 4; ++r) loop(r, 8);
  this->engine_.run();
  EXPECT_EQ(completions, 32);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(this->counter(TypeParam::kOps, r), 8u) << "rank " << r;
}

// The substrates whose wire can repeat a packet; Elan3's cannot, so its
// engine registers no duplicate counter.
template <typename S>
class NicGroupEngineOnLossyWire : public NicGroupEngine<S> {};
using LossySubstrates = ::testing::Types<Myrinet, InfiniBand>;
TYPED_TEST_SUITE(NicGroupEngineOnLossyWire, LossySubstrates);

TYPED_TEST(NicGroupEngineOnLossyWire, TwinBehindTheCompletingArrivalIsCounted) {
  this->build(2);
  this->make_group(1);
  // Rank 1's one wait and then its retransmitted twin land before the host
  // enters; the first completes operation 0 as it starts.
  auto& group = *this->groups(1).find(1);
  this->groups(1).arrive(group, 0, 0, 0, 0);
  this->groups(1).arrive(group, 0, 0, 0, 0);
  bool done = false;
  this->groups(1).collective_enter(1, 0, [&](std::int64_t) { done = true; });
  this->engine_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(this->counter(TypeParam::kEarly, 1), 1u);
  EXPECT_EQ(this->counter(TypeParam::kDuplicates, 1), 1u);
}

}  // namespace
}  // namespace qmb
