// The Fabric: instantiates a Topology's links and switches, attaches NICs,
// and models packet traversal with wormhole cut-through timing.
//
// Timing of one unicast: the head flit leaves the source when the first
// link is free, pays each link's propagation latency plus each switch's
// routing delay, and the tail arrives one serialization time after the head
// (cut-through: serialization is paid once, not per hop). Every link on the
// route is occupied for one serialization time starting when the head
// reaches it, which is what creates contention between packets sharing a
// link.
//
// Hot-path discipline: unicast and broadcast routes alike are computed O(1)
// into one fixed scratch (Topology::compute_route and
// compute_broadcast_route) — no Route is ever allocated — packet bodies are
// inline PacketPayloads, delivery callbacks capture the Packet by value
// inside the engine's inline callback storage, and broadcast's shared-link
// bookkeeping uses an epoch-stamped scratch vector. Steady-state transit
// performs zero heap allocations.
//
// Conservative PDES mode (enable_domains): the topology is cut into
// locality-preserving NIC domains and the engine sharded to match, with
// lookahead = 2 * link latency (every route crosses at least two links, so
// no send can affect any domain sooner than that). Within a window, send()
// does not touch wire state at all — it defers {emit time, causal stamp,
// packet} into the source domain's outbox. At each window boundary the
// single-threaded coordinator (the engine's window hook) merges all
// outboxes in (emit time, sched, lineage, domain, emit order) order — the
// causal stamps reproduce the sequential traversal order even for
// equal-instant sends (see the EventQueue tie-break contract, which makes
// this the determinism boundary) — then performs the
// full eager route traversal and schedules each delivery into its
// destination domain. Links and switches are therefore coordinator-owned:
// parallel window execution never races on them, and results are
// bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/switch_node.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace qmb::net {

struct FabricParams {
  LinkParams link;     // uniform across the fabric
  SwitchParams sw;
};

class Fabric {
 public:
  using DeliverFn = std::function<void(Packet&&)>;

  Fabric(sim::Engine& engine, std::unique_ptr<Topology> topology,
         FabricParams params, sim::Tracer* tracer = nullptr);

  /// Attaches the next NIC; `deliver` is invoked (from an engine event) when
  /// a packet addressed to it arrives.
  NicAddr attach(DeliverFn deliver);

  /// Injects a packet; returns its fabric-assigned flow id (== Packet::id,
  /// monotonically increasing across injections). The source NIC must have
  /// been attached. With tracing on, injection records a flow-start event
  /// on the source NIC's track and delivery a flow-finish on the
  /// destination's, so the hop renders as an arrow in Perfetto.
  std::uint64_t send(Packet&& p);

  /// Hardware multicast: replicates a packet from `src` to every attached
  /// NIC in [first, last] (inclusive, possibly including src). Climbs to at
  /// least `min_top_level` (and at least the level spanning the range) and
  /// fans out downward; shared route links are reserved once for the whole
  /// replication — the copies ride one transmission until the switches fork
  /// them. Returns the latest delivery time.
  sim::SimTime broadcast(NicAddr src, NicAddr first, NicAddr last, std::uint32_t wire_bytes,
                         PacketPayload body, int min_top_level = 0);

  /// Pure timing query: unloaded latency of a `bytes` packet src->dst —
  /// the tests' reference for send()'s cut-through timing.
  [[nodiscard]] sim::SimDuration unloaded_latency(NicAddr src, NicAddr dst,
                                                  std::uint32_t bytes) const;

  /// Shards this fabric (and its engine) into roughly `target_domains`
  /// conservative-PDES domains along the topology's cut. Call after
  /// construction, before any NIC attaches. Returns the actual domain count;
  /// 1 means the fabric stays sequential (target <= 1, an uncuttable
  /// topology, or zero link latency leaving no safe lookahead). The cut
  /// depends only on the topology and the target — never on thread count —
  /// so any thread count replays the identical window sequence.
  int enable_domains(int target_domains);

  /// Domain count (1 when sequential).
  [[nodiscard]] int domains() const {
    return domains_.empty() ? 1 : static_cast<int>(domains_.size());
  }
  /// Domain owning a NIC (0 when sequential).
  [[nodiscard]] int domain_of(NicAddr a) const {
    return nic_domain_.empty() ? 0 : nic_domain_[static_cast<std::size_t>(a.index())];
  }

  [[nodiscard]] FaultInjector& faults() { return faults_; }
  [[nodiscard]] const Topology& topology() const { return *topology_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] std::size_t attached_nics() const { return nics_.size(); }

  // Aggregated across domains in PDES mode (each domain owns private
  // counter slots registered under its domain id as the metric node).
  [[nodiscard]] std::uint64_t packets_sent() const {
    std::uint64_t n = packets_sent_.value();
    for (const auto& d : domains_) n += d.packets_sent.value();
    return n;
  }
  [[nodiscard]] std::uint64_t packets_delivered() const {
    std::uint64_t n = packets_delivered_.value();
    for (const auto& d : domains_) n += d.packets_delivered.value();
    return n;
  }
  [[nodiscard]] std::uint64_t bytes_sent() const {
    std::uint64_t n = bytes_sent_.value();
    for (const auto& d : domains_) n += d.bytes_sent.value();
    return n;
  }

  [[nodiscard]] Link& link(LinkId id) { return links_[id.index()]; }
  [[nodiscard]] SwitchNode& switch_node(SwitchId id) { return switches_[id.index()]; }

 private:
  /// A send deferred to the window boundary (PDES mode). `sched`/`lineage`
  /// are the emitting event's causal stamp (Engine::current_event_sched/
  /// _lineage): the instant that event was scheduled and the injection stamp
  /// of its chain's anchor delivery. The window merge orders equal-emit-time
  /// sends by them, reproducing the sequential issue order (see the
  /// EventQueue tie-break contract).
  struct Deferred {
    sim::SimTime emit;
    sim::SchedPath path;
    std::uint64_t lineage;
    Packet packet;
  };
  /// Per-domain PDES state. The counters shadow the fabric-wide ones under
  /// the domain id as metric node: the registry sums per name across nodes,
  /// so snapshots and totals stay identical to a sequential run.
  struct DomainState {
    obs::Counter packets_sent;
    obs::Counter packets_delivered;
    obs::Counter bytes_sent;
    obs::Histogram packet_bytes;
    // Packet ids only feed traces, never results, so per-domain streams in
    // disjoint high-bits ranges keep them unique without coordination.
    std::uint64_t next_packet_id = 0;
    std::vector<Deferred> outbox;
  };
  /// Reference into a domain outbox; the window merge sorts these by
  /// (emit, path, lineage, domain, idx) — causal ancestry first, then the
  /// anchor stamp for time-symmetric chains, falling back to (domain, emit
  /// order) only for pre-run-rooted ties (lineage 0), where ascending
  /// domain blocks reproduce the sequential rank order.
  struct MergeRef {
    sim::SimTime emit;
    sim::SchedPath path;
    std::uint64_t lineage;
    std::uint32_t domain;
    std::uint32_t idx;
  };

  /// Walks a route, reserving links; returns tail-arrival time at dst.
  sim::SimTime traverse(RouteView route, std::uint32_t bytes, sim::SimTime start);
  void schedule_delivery(Packet&& p, sim::SimTime at);
  /// Coordinator-side delivery injection into the destination's domain,
  /// carrying the sequential-order stamp (path = emit instant plus the
  /// sender's ancestry, lineage = this injection's stamp) the delivery's
  /// descendants will inherit.
  void schedule_delivery_on(int domain, Packet&& p, sim::SimTime at,
                            const sim::SchedPath& path, std::uint64_t lineage);
  /// Window hook: merges all domain outboxes in the causal-stamp order,
  /// traverses each route eagerly, and schedules the deliveries.
  void drain_window();

  sim::Engine& engine_;
  std::unique_ptr<Topology> topology_;
  FabricParams params_;
  sim::Tracer* tracer_;
  std::uint16_t trace_comp_ = 0;        // interned "fabric"
  std::uint16_t trace_ev_inject_ = 0;   // interned event names (hot path)
  std::uint16_t trace_ev_deliver_ = 0;
  std::uint16_t trace_ev_drop_ = 0;
  std::uint16_t trace_ev_bcast_ = 0;
  std::vector<Link> links_;
  std::vector<SwitchNode> switches_;
  std::vector<DeliverFn> nics_;
  FaultInjector faults_;
  // Per-broadcast shared-link scratch: head time after each link, stamped
  // with the broadcast's epoch so clearing between calls is O(0).
  std::vector<std::pair<std::uint64_t, sim::SimTime>> bcast_head_scratch_;
  std::uint64_t bcast_epoch_ = 0;
  std::uint64_t next_packet_id_ = 1;
  // PDES state (empty when sequential).
  std::vector<DomainState> domains_;
  std::vector<int> nic_domain_;
  std::vector<MergeRef> merge_scratch_;
  // Coordinator's delivery-injection stamp (starts at 1; 0 marks chains
  // rooted in pre-run setup). Globally unique, assigned in merge order.
  std::uint64_t inject_stamp_ = 0;
  RouteScratch route_scratch_;  // coordinator/sequential-thread only
  // Registered in the engine's MetricRegistry; RunResult reads the totals.
  obs::Counter packets_sent_;
  obs::Counter packets_delivered_;
  obs::Counter bytes_sent_;
  obs::Counter packets_dropped_;
  obs::Histogram packet_bytes_;
  obs::Gauge nics_attached_;
};

}  // namespace qmb::net
