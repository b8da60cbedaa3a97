// Unit tests of the IB verbs substrate: RC transport recovery (NAK
// retransmit, RTO on tail loss, ICRC discard of corrupted packets), the
// NIC-resident collective window, and the barrier's log-scaling latency
// curve.
#include "ib/hca.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/cluster.hpp"
#include "core/collectives.hpp"
#include "model/analytic.hpp"
#include "net/fault.hpp"

namespace qmb::ib {
namespace {

/// Smallest full-stack harness: the same cluster run_experiment builds.
struct Harness {
  sim::Engine engine;
  core::IbCluster cluster;

  explicit Harness(int n) : cluster(engine, ib_cluster(), n) {}

  IbNode& node(int i) { return cluster.node(i); }
  net::FaultInjector& faults() { return cluster.fabric().faults(); }
};

net::FaultSpec nth_fault(net::FaultAction action, std::uint64_t nth, int src) {
  net::FaultSpec f;
  f.action = action;
  f.nth = nth;
  f.src = src;
  return f;
}

TEST(IbTransport, WriteImmDeliversTaggedHostMessage) {
  Harness h(2);
  int received = 0;
  h.node(1).inbox().set_receive_handler([&](const coll::HostMsg& m) {
    EXPECT_EQ(m.src_node, 0);
    EXPECT_EQ(m.tag, 9u);
    EXPECT_EQ(m.value, 1234);
    ++received;
  });
  h.node(0).post(1, 8, 9, 1234);
  h.engine.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(h.node(0).hca().stats().writes_posted.value(), 1u);
  EXPECT_EQ(h.node(1).hca().stats().acks_sent.value(), 1u);
}

TEST(IbTransport, HostPollsOnlyOnceSomeoneListens) {
  // The inbox installs the HCA's upcall at its first registration: until
  // then a delivered message costs the host no CQ poll.
  Harness h(2);
  h.node(0).post(1, 8, 9, 1);
  h.engine.run();
  EXPECT_EQ(h.node(1).host_cpu().jobs_executed(), 0u);
  int received = 0;
  h.node(1).inbox().set_receive_handler([&](const coll::HostMsg&) { ++received; });
  h.node(0).post(1, 8, 9, 2);
  h.engine.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(h.node(1).host_cpu().jobs_executed(), 1u);
}

TEST(IbTransport, GapTriggersNakAndGoBackNRecovers) {
  // Drop the second request from node 0; the third arriving out of order
  // NAKs the gap and go-back-N replays the window. Every message must
  // still deliver exactly once, in order.
  Harness h(2);
  h.faults().install(nth_fault(net::FaultAction::kDrop, 2, /*src=*/0));
  std::vector<std::int64_t> got;
  h.node(1).inbox().set_receive_handler(
      [&](const coll::HostMsg& m) { got.push_back(m.value); });
  for (std::int64_t v = 1; v <= 4; ++v) h.node(0).post(1, 8, 0, v);
  h.engine.run();
  EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2, 3, 4}));
  const HcaStats& rx = h.node(1).hca().stats();
  const HcaStats& tx = h.node(0).hca().stats();
  EXPECT_GE(rx.naks_sent.value(), 1u);
  EXPECT_GE(tx.retransmissions.value(), 1u);
}

TEST(IbTransport, DuplicateDeliveryIsSuppressed) {
  // A wire-duplicated packet arrives with a PSN below the receive QP's
  // expectation: dropped and re-ACKed, never delivered twice.
  Harness h(2);
  h.faults().install(nth_fault(net::FaultAction::kDuplicate, 1, /*src=*/0));
  int received = 0;
  h.node(1).inbox().set_receive_handler([&](const coll::HostMsg&) { ++received; });
  h.node(0).post(1, 8, 0, 5);
  h.engine.run();
  EXPECT_EQ(received, 1);
  EXPECT_GE(h.node(1).hca().stats().duplicates_dropped.value(), 1u);
}

TEST(IbTransport, TailLossIsRecoveredByRtoAlone) {
  // Drop the only request: no later packet ever creates a gap, so the NAK
  // path stays silent and recovery must come from the sender's timer.
  Harness h(2);
  h.faults().install(nth_fault(net::FaultAction::kDrop, 1, /*src=*/0));
  int received = 0;
  h.node(1).inbox().set_receive_handler([&](const coll::HostMsg&) { ++received; });
  h.node(0).post(1, 8, 0, 42);
  h.engine.run();
  EXPECT_EQ(received, 1);
  const HcaStats& tx = h.node(0).hca().stats();
  EXPECT_GE(tx.rto_fires.value(), 1u);
  EXPECT_GE(tx.retransmissions.value(), 1u);
  EXPECT_EQ(h.node(1).hca().stats().naks_sent.value(), 0u);
}

TEST(IbTransport, CorruptedPacketDiscardedAtIcrcThenRetransmitted) {
  Harness h(2);
  h.faults().install(nth_fault(net::FaultAction::kCorrupt, 1, /*src=*/0));
  std::int64_t got = -1;
  h.node(1).inbox().set_receive_handler([&](const coll::HostMsg& m) { got = m.value; });
  h.node(0).post(1, 8, 0, 7);
  h.engine.run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(h.node(1).hca().stats().crc_dropped.value(), 1u);
  EXPECT_GE(h.node(0).hca().stats().retransmissions.value(), 1u);
}

TEST(IbCollective, WindowOverrunThrows) {
  // The group engine keeps two operations in flight (paper Sec. 6's static
  // buffering); a third doorbell while both slots are busy is a protocol
  // violation, not a silent queue.
  Harness h(2);
  auto barrier = core::make_collective(h.cluster, {});
  // Rank 1 never enters, so rank 0's operations can never complete.
  barrier->enter(0, 0, [](std::int64_t) {});
  barrier->enter(0, 0, [](std::int64_t) {});
  barrier->enter(0, 0, [](std::int64_t) {});
  EXPECT_THROW(h.engine.run(), std::logic_error);
}

TEST(IbBarrier, RerunIsBitIdentical) {
  const auto run_once = [] {
    Harness h(8);
    auto barrier = core::make_collective(h.cluster, {});
    return core::run_consecutive(h.engine, *barrier, {.warmup = 2, .iters = 20}).mean.picos();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(IbBarrier, NicDisseminationFitsTheLogCurve) {
  // The paper's latency model on the verbs substrate: mean barrier latency
  // against x = ceil(log2 N) - 1 is a line (intercept T_init + T_adj,
  // slope T_trig). Fit 4..32 nodes and require small relative residuals.
  std::vector<model::MeasuredPoint> points;
  for (const int n : {4, 8, 16, 32}) {
    Harness h(n);
    auto barrier = core::make_collective(h.cluster, {});
    const auto res = core::run_consecutive(h.engine, *barrier, {.warmup = 2, .iters = 30});
    points.push_back({n, res.mean.micros()});
  }
  const auto [intercept, slope] = model::fit_intercept_slope(points);
  EXPECT_GT(intercept, 0.0);
  EXPECT_GT(slope, 0.0);
  for (const auto& p : points) {
    const double x = std::ceil(std::log2(static_cast<double>(p.nodes))) - 1.0;
    const double predicted = intercept + slope * x;
    EXPECT_NEAR(predicted, p.latency_us, 0.15 * p.latency_us)
        << p.nodes << " nodes";
  }
}

}  // namespace
}  // namespace qmb::ib
