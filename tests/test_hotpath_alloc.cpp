// Zero-allocation assertions for the fabric packet hot path and for one
// rank's collective operation window.
//
// The whole test binary's operator new/delete are replaced with counting
// versions (every variant, including sized/aligned/nothrow, so the count is
// exact regardless of which overloads the toolchain picks). After a warmup
// sweep that grows the event queue to its peak and touches every
// (src, dst) pair, an identical steady-state sweep — injection, traversal,
// delivery, payload transport — must perform exactly zero heap
// allocations. This is the load-bearing claim behind the computed routes,
// the inline PacketPayload, and the enlarged sim::Callback inline storage:
// regressing any of them makes this count non-zero. A hardware broadcast
// from a source the fabric has never broadcast from allocates nothing
// either: its routes are computed, not memoized. Likewise a
// collective window, once each of its two slots has run an operation,
// keeps its bookkeeping in bits and per-edge slots it already owns, and
// the metric registry allocates per metric name, not per (name, node).
// The collective layer's own state is pinned too: one allocation per rank
// of schedule, no per-edge arrays for a barrier, none in a NACK round.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <numeric>
#include <string_view>
#include <vector>

#include "core/collectives.hpp"
#include "core/group_window.hpp"
#include "core/nic_group_engine.hpp"
#include "net/fabric.hpp"
#include "net/fat_tree.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void note_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* raw_alloc(std::size_t size) {
  note_alloc(size);
  return std::malloc(size != 0 ? size : 1);
}

void* raw_aligned_alloc(std::size_t size, std::size_t align) {
  note_alloc(size);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0) return nullptr;
  return p;
}

// Every replacement operator delete frees through this one out-of-line
// call. Inlined free() calls let GCC pair a caller's operator new with a
// free() and raise -Wmismatched-new-delete on the replacements themselves.
[[gnu::noinline]] void raw_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) { return checked(raw_alloc(size)); }
void* operator new[](std::size_t size) { return checked(raw_alloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return raw_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return raw_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return checked(raw_aligned_alloc(size, static_cast<std::size_t>(align)));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked(raw_aligned_alloc(size, static_cast<std::size_t>(align)));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return raw_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return raw_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { raw_free(p); }
void operator delete[](void* p) noexcept { raw_free(p); }
void operator delete(void* p, std::size_t) noexcept { raw_free(p); }
void operator delete[](void* p, std::size_t) noexcept { raw_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { raw_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { raw_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { raw_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { raw_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { raw_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { raw_free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  raw_free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  raw_free(p);
}

namespace qmb::net {
namespace {

using namespace qmb::sim::literals;

struct PingBody {
  std::uint64_t round = 0;
};

constexpr int kNics = 8;

/// One self-sustaining delivery sweep: every NIC re-injects to a rotating
/// destination until its budget runs out. Mirrors a steady-state barrier
/// round's fabric load (every NIC both sending and receiving each step).
void run_sweep(sim::Engine& engine, Fabric& fabric, std::vector<int>& remaining,
               int packets_per_nic) {
  for (int i = 0; i < kNics; ++i) remaining[static_cast<std::size_t>(i)] = packets_per_nic;
  for (int i = 0; i < kNics; ++i) {
    fabric.send(Packet(NicAddr(i), NicAddr((i + 1) % kNics), 64, PingBody{}));
  }
  engine.run();
}

TEST(HotpathAlloc, SteadyStateSweepPerformsZeroAllocations) {
  sim::Engine engine;
  Fabric fabric(engine, std::make_unique<SingleCrossbar>(kNics),
                FabricParams{LinkParams{300_ns, 2.0e9}, SwitchParams{300_ns}});
  std::vector<int> remaining(kNics, 0);
  for (int i = 0; i < kNics; ++i) {
    fabric.attach([&fabric, &remaining, i](Packet&& p) {
      auto& left = remaining[static_cast<std::size_t>(i)];
      if (left == 0) return;
      --left;
      const auto* ping = body_as<PingBody>(p);
      const std::uint64_t round = ping != nullptr ? ping->round + 1 : 0;
      int dst = static_cast<int>((static_cast<std::uint64_t>(i) + round) %
                                 static_cast<std::uint64_t>(kNics));
      if (dst == i) dst = (dst + 1) % kNics;
      fabric.send(Packet(NicAddr(i), NicAddr(dst), 64, PingBody{round}));
    });
  }

  // Warm every (src, dst) route slot explicitly, then run a full sweep so
  // the event queue reaches its steady-state capacity.
  for (int s = 0; s < kNics; ++s) {
    for (int d = 0; d < kNics; ++d) {
      if (s == d) continue;
      fabric.send(Packet(NicAddr(s), NicAddr(d), 64, PingBody{}));
    }
  }
  engine.run();
  run_sweep(engine, fabric, remaining, 200);
  const std::uint64_t delivered_warm = fabric.packets_delivered();
  ASSERT_GT(delivered_warm, 0u);

  // Sanity: the counter itself works. Direct operator-new calls cannot be
  // elided the way a new-expression can.
  g_allocs.store(0);
  g_counting.store(true);
  ::operator delete(::operator new(sizeof(int)));
  g_counting.store(false);
  ASSERT_EQ(g_allocs.load(), 1u);

  // The measured, identical sweep: zero allocations allowed.
  g_allocs.store(0);
  g_counting.store(true);
  run_sweep(engine, fabric, remaining, 200);
  g_counting.store(false);
  const std::uint64_t allocs = g_allocs.load();
  const std::uint64_t delivered = fabric.packets_delivered() - delivered_warm;

  EXPECT_GT(delivered, static_cast<std::uint64_t>(kNics) * 200u - 1u);
  EXPECT_EQ(allocs, 0u) << "steady-state packet path allocated " << allocs
                        << " times over " << delivered << " deliveries";
}

TEST(HotpathAlloc, BroadcastFromANewSourceAllocatesNothing) {
  // A 64-node quaternary fat tree, as a Quadrics hardware broadcast sees it.
  constexpr int kBcastNics = 64;
  sim::Engine engine;
  Fabric fabric(engine, std::make_unique<FatTree>(FatTree::fitting(4, kBcastNics)),
                FabricParams{LinkParams{300_ns, 2.0e9}, SwitchParams{300_ns}});
  int delivered = 0;
  for (int i = 0; i < kBcastNics; ++i) {
    fabric.attach([&delivered](Packet&&) { ++delivered; });
  }
  const NicAddr first(0), last(kBcastNics - 1);
  // One warm-up broadcast grows the event queue to a broadcast's peak.
  fabric.broadcast(NicAddr(0), first, last, 64, PingBody{}, 0);
  engine.run();

  g_allocs.store(0);
  g_counting.store(true);
  fabric.broadcast(NicAddr(37), first, last, 64, PingBody{}, 0);
  engine.run();
  g_counting.store(false);
  EXPECT_EQ(delivered, 2 * kBcastNics);
  EXPECT_EQ(g_allocs.load(), 0u) << "a 64-way broadcast from a new source allocated "
                                 << g_allocs.load() << " times";
}

/// Allocations one rank's GroupWindow makes over ops 2..9 of ten
/// consecutive operations on rank 0 of an 8-rank group, with one early
/// arrival per operation: its first wait lands before it starts.
std::uint64_t steady_window_allocs(coll::OpKind kind, coll::Algorithm alg, int& completions) {
  const coll::GroupSchedule g = coll::make_collective_schedule(kind, 8, 0, alg);
  const coll::RankSchedule& rs = g.ranks[0];
  std::vector<coll::Edge> waits;
  for (std::size_t s = 0; s < rs.step_count(); ++s) {
    waits.insert(waits.end(), rs.waits(s).begin(), rs.waits(s).end());
  }
  coll::GroupWindow<> window(
      rs, kind, coll::ReduceOp::kSum,
      {.send = [](coll::GroupWindow<>::Slot&, const coll::Edge&) {},
       .complete = [&completions](coll::GroupWindow<>::Slot&) { ++completions; }});
  for (std::uint32_t op = 0; op < 10; ++op) {
    if (op == 2) {
      g_allocs.store(0);
      g_counting.store(true);
    }
    window.on_arrival(op, waits[0].peer, waits[0].tag, 1);
    window.start(1);
    for (std::size_t i = 1; i < waits.size(); ++i) {
      window.on_arrival(op, waits[i].peer, waits[i].tag, 1);
    }
  }
  g_counting.store(false);
  return g_allocs.load();
}

TEST(HotpathAlloc, SteadyStateGroupWindowPerformsZeroAllocations) {
  for (const auto kind : {coll::OpKind::kBarrier, coll::OpKind::kAllreduce}) {
    for (const auto alg : {coll::Algorithm::kDissemination, coll::Algorithm::kGatherBroadcast}) {
      int completions = 0;
      const std::uint64_t allocs = steady_window_allocs(kind, alg, completions);
      EXPECT_EQ(completions, 10) << coll::to_string(kind) << "/" << coll::to_string(alg);
      EXPECT_EQ(allocs, 0u) << coll::to_string(kind) << "/" << coll::to_string(alg)
                            << ": 8 steady operations allocated " << allocs << " times";
    }
  }
}

TEST(HotpathAlloc, ArrivalsBeforeStartAllocateNothing) {
  // Every wait of rank 0's first operation lands before it starts, on a
  // window that has never run. Each arrival sets its bit (and a value
  // kind's payload) in the slot, both sized when the window was built; a
  // list of early arrivals for start() to replay would grow at the first.
  for (const auto kind : {coll::OpKind::kBarrier, coll::OpKind::kAllreduce}) {
    const coll::GroupSchedule g =
        coll::make_collective_schedule(kind, 8, 0, coll::Algorithm::kDissemination);
    const coll::RankSchedule& rs = g.ranks[0];
    int completions = 0;
    coll::GroupWindow<> window(
        rs, kind, coll::ReduceOp::kSum,
        {.send = [](coll::GroupWindow<>::Slot&, const coll::Edge&) {},
         .complete = [&completions](coll::GroupWindow<>::Slot&) { ++completions; }});
    g_allocs.store(0);
    g_counting.store(true);
    for (std::size_t s = 0; s < rs.step_count(); ++s) {
      for (const coll::Edge& w : rs.waits(s)) window.on_arrival(0, w.peer, w.tag, 1);
    }
    window.start(1);
    g_counting.store(false);
    EXPECT_EQ(completions, 1) << coll::to_string(kind);
    EXPECT_EQ(g_allocs.load(), 0u) << coll::to_string(kind) << ": arrivals before the start "
                                   << "allocated " << g_allocs.load() << " times";
  }
}

TEST(HotpathAlloc, BarrierScheduleAllocatesOncePerRank) {
  // Each rank's schedule is one block, and the writer reuses its buffers
  // from rank to rank. Per-step edge vectors made 30 allocations per rank.
  constexpr std::uint64_t kRanks = 4096;
  for (const coll::Algorithm alg : coll::kBarrierAlgorithms) {
    g_allocs.store(0);
    g_counting.store(true);
    const coll::GroupSchedule g = coll::make_barrier_schedule(alg, static_cast<int>(kRanks));
    g_counting.store(false);
    EXPECT_LE(g_allocs.load(), kRanks + 64) << coll::to_string(alg);
  }
}

/// A NIC that charges nothing and puts nothing on a wire: what its group
/// engine allocates is the engine's own. It NACKs on a fixed period, like
/// Myrinet.
struct BareNic {
  static constexpr coll::GroupTraceNames kGroupTrace{
      .enter = "enter", .complete = "complete", .nack_rx = "nack_rx"};
  static constexpr bool kNackOnWire = true;
  static constexpr bool kNackOnSilence = false;
  static constexpr sim::SimDuration kNackTimeout = sim::microseconds(10);

  sim::Engine& engine() { return engine_; }
  void trace(std::string_view, std::int64_t, std::int64_t, std::int64_t = 0) {}
  template <typename Start>
  void charge_enter(const coll::GroupDesc&, Start&& start) {
    start();
  }
  template <typename Group>
  void send_edge(Group&, std::uint32_t, const coll::Edge&, int, std::uint32_t, std::int64_t,
                 bool) {}
  void charge_complete(const coll::GroupDesc&, coll::Completion&& c) { c(); }
  static bool nack_recovery(const coll::GroupDesc&) { return true; }
  static bool skip_retransmit(const coll::GroupDesc&) { return false; }
  static sim::SimDuration nack_timeout() { return kNackTimeout; }
  void send_nack(const coll::GroupDesc&, std::uint32_t, std::uint32_t, int) { ++nacks; }

  sim::Engine& engine_;
  std::uint64_t nacks = 0;
};

/// Rank 0's descriptor of an n-rank dissemination barrier, group 0.
coll::GroupDesc barrier_desc(int n) {
  std::vector<int> ident(static_cast<std::size_t>(n));
  std::iota(ident.begin(), ident.end(), 0);
  return {.group_id = 0,
          .my_rank = 0,
          .rank_to_node = coll::make_placement(std::move(ident)),
          .schedule = std::make_shared<const coll::GroupSchedule>(
              coll::make_barrier_schedule(coll::Algorithm::kDissemination, n))};
}

/// Bytes a BareNic's group engine allocates for rank 0 of an n-rank
/// barrier, from create_group through two operations that complete.
std::uint64_t barrier_group_bytes(int n) {
  sim::Engine engine;
  BareNic nic{engine};
  coll::GroupCounters counters;
  coll::NicGroupEngine<BareNic> groups(nic, counters);
  coll::GroupDesc desc = barrier_desc(n);
  std::vector<coll::Edge> waits;
  const coll::RankSchedule& rs = desc.rank_schedule();
  for (std::size_t s = 0; s < rs.step_count(); ++s) {
    waits.insert(waits.end(), rs.waits(s).begin(), rs.waits(s).end());
  }
  int completions = 0;
  g_bytes.store(0);
  g_counting.store(true);
  groups.create_group(std::move(desc));
  auto& group = *groups.find(0);
  for (std::uint32_t op = 0; op < 2; ++op) {
    groups.collective_enter(0, 0, [&completions](std::int64_t) { ++completions; });
    for (const coll::Edge& w : waits) groups.arrive(group, op, w.peer, w.tag, 0);
  }
  g_counting.store(false);
  EXPECT_EQ(completions, 2) << "n=" << n;
  return g_bytes.load();
}

TEST(HotpathAlloc, BarrierGroupAllocatesNothingSizedByItsEdgeCount) {
  // A barrier edge carries no value, so neither the window's received
  // values nor the engine's resend values exist: rank 0 allocates the same
  // bytes with 6 edges as with 20.
  EXPECT_EQ(barrier_group_bytes(8), barrier_group_bytes(1024));
}

TEST(HotpathAlloc, NackRoundAllocatesNothing) {
  // Rank 0 of an 8-rank barrier whose peers never answer: every round of
  // the NACK timer finds step 0's one wait missing and NACKs it.
  sim::Engine engine;
  BareNic nic{engine};
  coll::GroupCounters counters;
  coll::NicGroupEngine<BareNic> groups(nic, counters);
  groups.create_group(barrier_desc(8));
  groups.collective_enter(0, 0, {});
  const sim::SimDuration half = BareNic::kNackTimeout / 2;
  engine.run_until(sim::SimTime::zero() + BareNic::kNackTimeout * 3 + half);
  const std::uint64_t warm = nic.nacks;
  ASSERT_EQ(warm, 3u);

  g_allocs.store(0);
  g_counting.store(true);
  engine.run_until(sim::SimTime::zero() + BareNic::kNackTimeout * 13 + half);
  g_counting.store(false);
  EXPECT_EQ(nic.nacks - warm, 10u);
  EXPECT_EQ(g_allocs.load(), 0u) << "10 NACK rounds allocated " << g_allocs.load() << " times";
}

TEST(HotpathAlloc, MetricRegistrationAllocatesPerNameNotPerNode) {
  // A 4096-node Myrinet cluster's per-node names, registered node by node
  // as its constructors do. Values sit side by side per name, so the
  // allocations are each name's store growing, not one per (name, node).
  static constexpr std::string_view kNames[] = {
      "mcp.data_packets_sent", "mcp.acks_sent",       "mcp.retransmissions",
      "mcp.drops_bad_seq",     "mcp.dup_acked",       "mcp.drops_no_token",
      "mcp.tokens_completed",  "mcp.buffer_stalls",   "coll.msgs_sent",
      "coll.msgs_received",    "coll.duplicates",     "coll.early_buffered",
      "coll.stale_dropped",    "coll.nacks_sent",     "coll.nacks_received",
      "coll.retransmissions",  "coll.acks_sent",      "coll.ops_completed",
      "nic.crc_dropped"};
  constexpr int kNodes = 4096;
  obs::MetricRegistry reg;
  g_allocs.store(0);
  g_counting.store(true);
  for (int node = 0; node < kNodes; ++node) {
    for (const std::string_view name : kNames) ++reg.counter(name, node);
  }
  g_counting.store(false);
  const std::uint64_t registrations = std::size(kNames) * kNodes;
  EXPECT_EQ(reg.size(), registrations);
  EXPECT_EQ(reg.total("mcp.acks_sent"), static_cast<std::uint64_t>(kNodes));
  EXPECT_LT(g_allocs.load() * 16, registrations)
      << g_allocs.load() << " allocations for " << registrations << " registrations";
}

}  // namespace
}  // namespace qmb::net
