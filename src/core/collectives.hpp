// Collective operations over the NIC collective protocol — the paper's
// contribution (Secs. 3 and 6) with barrier as its case study, and its
// Sec. 9 future work ("whether other collective communication operations,
// such as Allgather ... could benefit from similar NIC-level
// implementations"), plus host-based counterparts for comparison.
//
// A barrier is the zero-payload kind (OpKind::kBarrier). The value kinds
// give each rank one logical contribution: a broadcast payload, a reduction
// operand, or an allgather/alltoall contribution mask (bit r = rank r's
// item; the simulator checks set union, a real implementation would ship
// the items). `payload_bytes` sets the simulated size of one contribution:
// at the default 8 bytes everything rides the padded static send packet
// (Sec. 6.2); larger contributions fall back to pool buffers and host DMA
// on Myrinet, while Elan RDMA carries any size to host memory directly.
//
// Every kind runs on one engine per side: the host-level executor over the
// node's host inbox (core/host_inbox.hpp), or a NIC-resident collective
// that rings the node's doorbell into a coll::NicGroupEngine; both walk the
// schedule through coll::GroupWindow. The Myrinet direct scheme is that NIC
// collective over a second engine hook set; only Elan hgsync, which runs
// no schedule, is an adapter of its own.
//
//   sim::Engine engine;
//   core::MyriCluster cluster(engine, myri::lanaixp_cluster(), 8);
//   auto barrier = core::make_collective(cluster, {});  // NIC dissemination barrier
//   const auto r = core::run_consecutive(engine, *barrier, {.warmup = 100, .iters = 10000});
//   std::cout << r.mean.micros() << " us\n";
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/coll_spec.hpp"
#include "core/schedule.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace qmb::core {

class MyriCluster;
class ElanCluster;
class IbCluster;

/// A cluster-wide collective operation. Ranks enter with a contribution
/// and receive the operation's result in their completion callback (0 for
/// a barrier).
///
/// Two entry styles share one protocol engine:
///
///  * enter(rank, value, done)  — blocking style: `done(result)` fires when
///                                the operation completes for the rank.
///  * start(rank, value) /
///    wait(rank, done)          — GASNet-style split phase: start() launches
///                                the rank's participation and returns; the
///                                rank computes, then wait() completes at
///                                once (the result already landed under the
///                                compute) or parks until it does.
class Collective {
 public:
  virtual ~Collective() = default;

  using DoneFn = std::function<void(std::int64_t result)>;

  /// Rank `rank` enters with `value`; `done(result)` runs on its host.
  /// A rank must not re-enter before its previous completion.
  virtual void enter(int rank, std::int64_t value, DoneFn done) = 0;

  /// Split phase, part 1: starts `rank`'s participation with `value`
  /// without blocking. Throws std::logic_error on a double start (a start
  /// with no intervening wait completion).
  void start(int rank, std::int64_t value);

  /// Split phase, part 2: `done(result)` runs when the operation started
  /// earlier completes for `rank` — immediately if it already has. Throws
  /// std::logic_error without a prior start, or when a wait is pending.
  void wait(int rank, DoneFn done);

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual int size() const = 0;
  [[nodiscard]] virtual coll::OpKind kind() const = 0;

 private:
  /// Per-rank split-phase progress; the protocol completion can land before
  /// or after the host's wait(), the state records which side came first.
  enum class Phase : std::uint8_t {
    kIdle,      // no split-phase operation in flight
    kNotified,  // start() issued, protocol still running, no waiter yet
    kWaiting,   // wait() parked a callback, protocol still running
    kReady,     // protocol completed before wait() showed up
  };
  struct SplitState {
    Phase phase = Phase::kIdle;
    std::int64_t result = 0;
    DoneFn waiter;
  };
  SplitState& split_state(int rank);

  std::vector<SplitState> split_;  // lazily sized to size()
};

/// Kept for perfbench: the pre-merge barrier type, now a Collective at
/// OpKind::kBarrier.
using Barrier = Collective;

/// The exact result every rank must observe when rank r enters with
/// checked_contribution(kind, r) (root 0 for bcast; sum-reduce;
/// allgather/alltoall union contribution masks; 0 for a barrier). Shared by
/// the run driver's value checking and the load subsystem's per-group
/// verification.
[[nodiscard]] std::int64_t expected_collective_result(coll::OpKind kind, int n);

/// Rank r's contribution under that check: r + 1, or nothing for a barrier.
[[nodiscard]] inline std::int64_t checked_contribution(coll::OpKind kind, int rank) {
  return kind == coll::OpKind::kBarrier ? 0 : rank + 1;
}

/// One CollSpec in, one Collective out, dispatching on spec.engine. The
/// substrate registry's SubstrateCluster::make_collective lands here, or on
/// a baseline below. A Myrinet barrier group's NIC engine runs with the
/// cluster's ablation features.
std::unique_ptr<Collective> make_collective(MyriCluster& cluster,
                                            const coll::CollSpec& spec);
std::unique_ptr<Collective> make_collective(ElanCluster& cluster,
                                            const coll::CollSpec& spec);
std::unique_ptr<Collective> make_collective(IbCluster& cluster,
                                            const coll::CollSpec& spec);

/// Prior work's direct NIC-based barrier (Buntinas et al.) over
/// spec.algorithm/radix/rank_to_node: the NIC detects barrier messages and
/// triggers the next ones, but every message still traverses the MCP
/// point-to-point machinery — per-destination queues, packet-pool claims,
/// per-packet send records, ACK-based reliability. It runs on each node's
/// myri::DirectEngine, which tells groups apart by their BarrierTag, so
/// several direct barriers can share a cluster.
std::unique_ptr<Collective> make_direct_barrier(MyriCluster& cluster,
                                                const coll::CollSpec& spec);

/// elan_gsync() with hardware broadcast disabled: the Elan host executor on
/// a radix-4 gather-broadcast tree, where every stage pays host event
/// detection and a fresh doorbell.
std::unique_ptr<Collective> make_gsync_barrier(ElanCluster& cluster,
                                               std::vector<int> rank_to_node = {});

/// elan_hgsync(): the hardware broadcast + network test-and-set barrier
/// over every node. Fast and N-independent, but only when processes arrive
/// together; a straggler forces probe retries (paper Secs. 4.1 and 8.2).
std::unique_ptr<Collective> make_hgsync_barrier(ElanCluster& cluster);

/// How run_consecutive drives an operation (paper methodology: warm-up
/// iterations discarded, then the average of the timed ones).
struct RunPlan {
  int warmup = 0;
  int iters = 1;
  /// Split phase: each rank start()s, computes this long, then wait()s —
  /// the GASNet notify/compute/wait idiom, so the visible cost per
  /// iteration is max(overlap, latency) plus the non-overlapped tail.
  /// Empty: every rank enter()s and blocks.
  std::optional<sim::SimDuration> overlap = std::nullopt;
  /// Every (re-)entry waits a uniform draw in [0, max_skew] from an RNG
  /// seeded with skew_seed (deterministic chaos, as the fuzzer drives);
  /// zero adds no event at all.
  sim::SimDuration max_skew = sim::SimDuration::zero();
  std::uint64_t skew_seed = 0;
  /// Watchdog: a protocol bug that retransmits forever (or deadlocks)
  /// surfaces as std::runtime_error at this much simulated time.
  sim::SimDuration horizon = sim::seconds(120);
  /// Rank -> engine domain (Fabric::domain_of over the placement);
  /// required on a sharded (PDES) engine. Initial entries are issued inside
  /// each rank's domain, and every completion lands in a rank-private slot
  /// so parallel windows never race.
  const std::vector<int>* rank_domain = nullptr;
};

struct RunSeries {
  sim::LatencySeries per_iteration;  // steady-state completion-to-completion
  sim::SimDuration mean = sim::SimDuration::zero();
  std::uint64_t iterations = 0;
  /// Results that differed from expected_collective_result: a protocol
  /// correctness bug, never noise.
  std::uint64_t value_errors = 0;
};

/// The one run driver: `warmup + iters` consecutive operations, every rank
/// entering with checked_contribution(op.kind(), rank) and re-entering as
/// soon as its previous result is delivered. The per-iteration series is
/// the per-iteration max across ranks — the instant the n-th completion
/// landed. Throws std::runtime_error at plan.horizon.
RunSeries run_consecutive(sim::Engine& engine, Collective& op, const RunPlan& plan);

/// Kept for perfbench: the pre-merge blocking barrier driver.
using BarrierRunResult = RunSeries;
inline BarrierRunResult run_consecutive_barriers(
    sim::Engine& engine, Barrier& barrier, int warmup, int iters, sim::SimDuration max_skew,
    std::uint64_t skew_seed, sim::SimDuration horizon, const std::vector<int>* rank_domain) {
  return run_consecutive(engine, barrier,
                         {warmup, iters, std::nullopt, max_skew, skew_seed, horizon, rank_domain});
}

}  // namespace qmb::core
