// Unit tests of the IB verbs substrate: RC transport recovery (NAK
// retransmit, RTO on tail loss with backoff and a retry limit, ICRC discard
// of corrupted packets), the unacknowledged collective path and its NACK
// recovery, the NIC-resident collective window, and the barrier's
// log-scaling latency curve.
#include "ib/hca.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
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
  EXPECT_GE(h.node(1).hca().stats().duplicates.value(), 1u);
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

TEST(IbTransport, RtoBacksOffAndRetryLimitNamesBothNodes) {
  // Every request from node 0 to node 1 is lost. The RTO doubles on each
  // consecutive expiry (50, 100, ... 6400 us), and once retry_cnt replays
  // went unanswered the next expiry ends the run with an error naming the
  // QP's two nodes, well before the horizon.
  Harness h(2);
  net::FaultSpec blackhole;
  blackhole.action = net::FaultAction::kDrop;
  blackhole.src = 0;
  blackhole.dst = 1;
  blackhole.until_ps = sim::milliseconds(100).picos();
  h.faults().install(blackhole);
  h.node(0).post(1, 8, 0, 1);
  std::string error;
  try {
    h.engine.run_until(sim::SimTime::zero() + sim::milliseconds(100));
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  EXPECT_EQ(error, "ib: retry count exceeded on QP 0 -> 1");
  const HcaStats& tx = h.node(0).hca().stats();
  EXPECT_EQ(tx.rto_fires.value(), static_cast<std::uint64_t>(Hca::kRetryCount + 1));
  EXPECT_EQ(tx.retransmissions.value(), static_cast<std::uint64_t>(Hca::kRetryCount));
  // Eight expiries at 1 + 2 + ... + 128 base RTOs, plus one replay's WQE
  // fetch before each re-arm; a fixed RTO would have given up after 8.
  const sim::SimDuration rto = h.cluster.config().rto;
  EXPECT_GE(h.engine.now() - sim::SimTime::zero(), 255 * rto);
  EXPECT_LT(h.engine.now() - sim::SimTime::zero(), 256 * rto);
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

TEST(IbCollective, BarrierSendsOnePacketPerScheduleEdge) {
  // The paper's fourth simplification on verbs: collective writes are never
  // ACKed, so an 8-node dissemination barrier (3 rounds, one write per rank
  // per round) puts 24 packets on the wire per operation. The only timers
  // ever cancelled are the NACK timers, one per rank per operation: no RC
  // retransmission timer was armed.
  Harness h(8);
  auto barrier = core::make_collective(h.cluster, {});
  core::run_consecutive(h.engine, *barrier, {.warmup = 0, .iters = 10});
  const obs::MetricRegistry& reg = h.engine.metrics();
  EXPECT_EQ(reg.total("fabric.packets_sent"), 240u);
  EXPECT_EQ(reg.total("ib.writes_posted"), 240u);
  EXPECT_EQ(reg.total("ib.acks_sent"), 0u);
  EXPECT_EQ(reg.total("ib.naks_sent"), 0u);
  EXPECT_EQ(h.engine.events_scheduled() - h.engine.events_fired(), 8u * 10u);
}

TEST(IbCollective, DroppedEdgeIsRecoveredByNack) {
  // One collective write is lost. No RC timer covers it: its receiver's
  // NACK timer notices the silence and the sender resends the edge.
  Harness h(8);
  h.faults().install(nth_fault(net::FaultAction::kDrop, 30, /*src=*/-1));
  auto barrier = core::make_collective(h.cluster, {});
  core::run_consecutive(h.engine, *barrier, {.warmup = 0, .iters = 10});
  const obs::MetricRegistry& reg = h.engine.metrics();
  EXPECT_EQ(reg.total("fault.dropped"), 1u);
  EXPECT_EQ(reg.total("ib.ops_completed"), 8u * 10u);
  EXPECT_GE(reg.total("ib.naks_sent"), 1u);
  // Every NACK that reached its peer was sent; none is counted twice.
  EXPECT_GE(reg.total("ib.naks_received"), 1u);
  EXPECT_LE(reg.total("ib.naks_received"), reg.total("ib.naks_sent"));
  EXPECT_GE(reg.total("ib.retransmissions"), 1u);
  EXPECT_EQ(reg.total("ib.rto_fires"), 0u);
}

TEST(IbCollective, StarNacksBackOff) {
  // A 160-rank star: the root serializes 159 arrivals and 159 releases, so
  // leaves wait ~200 us for their release with nothing lost. The silence
  // timer doubles after each NACK round, which keeps a leaf to a few NACKs
  // per operation (a fixed 50 us period storms), and no RC timer exists to
  // fire spuriously.
  constexpr int kRanks = 160;
  constexpr int kIters = 20;
  Harness h(kRanks);
  auto barrier = core::make_collective(
      h.cluster, {.algorithm = coll::Algorithm::kGatherBroadcast, .radix = kRanks - 1});
  core::run_consecutive(h.engine, *barrier, {.warmup = 0, .iters = kIters});
  const obs::MetricRegistry& reg = h.engine.metrics();
  EXPECT_EQ(reg.total("ib.ops_completed"), static_cast<std::uint64_t>(kRanks * kIters));
  EXPECT_EQ(reg.total("ib.rto_fires"), 0u);
  EXPECT_LE(reg.total("ib.naks_sent"), 4u * (kRanks - 1) * kIters);
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
