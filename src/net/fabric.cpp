#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace qmb::net {

Fabric::Fabric(sim::Engine& engine, std::unique_ptr<Topology> topology,
               FabricParams params, sim::Tracer* tracer)
    : engine_(engine),
      topology_(std::move(topology)),
      params_(params),
      tracer_(tracer) {
  auto& reg = engine_.metrics();
  packets_sent_ = reg.counter("fabric.packets_sent");
  packets_delivered_ = reg.counter("fabric.packets_delivered");
  bytes_sent_ = reg.counter("fabric.bytes_sent");
  packets_dropped_ = reg.counter("fabric.packets_dropped");
  packet_bytes_ = reg.histogram("fabric.packet_bytes");
  nics_attached_ = reg.gauge("fabric.nics");
  if (tracer_) {
    trace_comp_ = tracer_->intern("fabric");
    trace_ev_inject_ = tracer_->intern("inject");
    trace_ev_deliver_ = tracer_->intern("deliver");
    trace_ev_drop_ = tracer_->intern("drop");
    trace_ev_bcast_ = tracer_->intern("broadcast");
  }
  links_.reserve(topology_->num_links());
  for (std::size_t i = 0; i < topology_->num_links(); ++i) {
    links_.emplace_back(params_.link);
  }
  switches_.reserve(topology_->num_switches());
  for (std::size_t i = 0; i < topology_->num_switches(); ++i) {
    switches_.emplace_back(SwitchId(static_cast<std::int32_t>(i)), params_.sw);
  }
  bcast_head_scratch_.assign(topology_->num_links(), {0, sim::SimTime{}});
  faults_.set_clock(&engine_);
  faults_.register_metrics(reg);
}

int Fabric::enable_domains(int target_domains) {
  if (target_domains <= 1) return 1;
  if (!nics_.empty()) throw std::logic_error("fabric: enable_domains after NICs attached");
  if (!domains_.empty()) throw std::logic_error("fabric: enable_domains called twice");
  // The trace ring is single-threaded; traced runs stay sequential (the run
  // layer also refuses the combination, this guards direct constructions).
  if (tracer_ != nullptr) return 1;
  // Every unicast crosses >= 2 links (src uplink + dst downlink), so no send
  // can be observed anywhere before 2 * link latency has passed — that is
  // the conservative lookahead. Zero-latency links leave no safe window.
  const sim::SimDuration lookahead = params_.link.latency * 2;
  if (lookahead <= sim::SimDuration::zero()) return 1;
  std::vector<int> cut;
  const int count = topology_->domain_cut(target_domains, cut);
  if (count <= 1) return 1;
  engine_.enable_domains(count, lookahead);
  nic_domain_ = std::move(cut);
  domains_.resize(static_cast<std::size_t>(count));
  auto& reg = engine_.metrics();
  for (int d = 0; d < count; ++d) {
    DomainState& ds = domains_[static_cast<std::size_t>(d)];
    ds.packets_sent = reg.counter("fabric.packets_sent", d);
    ds.packets_delivered = reg.counter("fabric.packets_delivered", d);
    ds.bytes_sent = reg.counter("fabric.bytes_sent", d);
    ds.packet_bytes = reg.histogram("fabric.packet_bytes", d);
    ds.next_packet_id = (static_cast<std::uint64_t>(d) + 1) << 48;
  }
  engine_.set_window_hook([this] { drain_window(); });
  return count;
}

NicAddr Fabric::attach(DeliverFn deliver) {
  if (nics_.size() >= topology_->max_nics()) {
    throw std::runtime_error("fabric: all NIC ports in use");
  }
  nics_.push_back(std::move(deliver));
  nics_attached_.set(static_cast<std::int64_t>(nics_.size()));
  return NicAddr(static_cast<std::int32_t>(nics_.size() - 1));
}

sim::SimTime Fabric::traverse(RouteView route, std::uint32_t bytes, sim::SimTime start) {
  assert(route.links.size() == route.switches.size() + 1);
  sim::SimTime head = start;
  for (std::size_t i = 0; i < route.links.size(); ++i) {
    Link& l = links_[route.links[i].index()];
    head = l.reserve(head, bytes) + l.latency();
    if (i < route.switches.size()) {
      SwitchNode& s = switches_[route.switches[i].index()];
      s.note_forwarded(bytes);
      head += s.routing_delay();
    }
  }
  // Cut-through: the tail trails the head by one serialization time.
  return head + links_[route.links.back().index()].serialization(bytes);
}

void Fabric::schedule_delivery(Packet&& p, sim::SimTime at) {
  // The Packet (inline payload included) rides in the callback's inline
  // storage — no shared_ptr, no heap.
  engine_.schedule_at(at, [this, p = std::move(p)]() mutable {
    ++packets_delivered_;
    if (tracer_ && tracer_->enabled()) {
      // Flow finish on the destination track: pairs with the injection's
      // flow start through the shared packet id.
      tracer_->record(engine_.now(), trace_comp_, trace_ev_deliver_, p.dst.value(),
                      p.src.value(), static_cast<std::int64_t>(p.wire_bytes),
                      static_cast<std::int64_t>(p.id), obs::FlowPhase::kFinish);
    }
    nics_[p.dst.index()](std::move(p));
  });
}

void Fabric::schedule_delivery_on(int domain, Packet&& p, sim::SimTime at,
                                  const sim::SchedPath& path, std::uint64_t lineage) {
  engine_.schedule_at_on(
      domain, at,
      [this, p = std::move(p)]() mutable {
        ++domains_[static_cast<std::size_t>(nic_domain_[p.dst.index()])]
              .packets_delivered;
        if (tracer_ && tracer_->enabled()) {
          tracer_->record(engine_.now(), trace_comp_, trace_ev_deliver_,
                          p.dst.value(), p.src.value(),
                          static_cast<std::int64_t>(p.wire_bytes),
                          static_cast<std::int64_t>(p.id), obs::FlowPhase::kFinish);
        }
        nics_[p.dst.index()](std::move(p));
      },
      &path, lineage);
}

void Fabric::drain_window() {
  // Merge all domain outboxes into the sequential traversal order:
  // (emit time, sched, lineage, domain, per-domain emit order). Per-domain
  // entries are already emit-ordered (events fire in time order), so the
  // sort only settles cross-domain interleaving. Equal-emit-time entries
  // order by the emitting events' causal stamps — the instant each event
  // was scheduled, then its chain's anchor-delivery injection stamp — which
  // is exactly the sequential engine's insertion order for those sends (see
  // the EventQueue tie-break contract). Only chains rooted in pre-run setup
  // (lineage 0, sched equal) can still tie across domains, and there the
  // (domain, emit order) fallback is the sequential rank order because
  // domain blocks ascend with rank.
  merge_scratch_.clear();
  for (std::uint32_t d = 0; d < domains_.size(); ++d) {
    const auto& outbox = domains_[d].outbox;
    for (std::uint32_t i = 0; i < outbox.size(); ++i) {
#ifndef NDEBUG
      // Tie-break contract, per-domain half: emits never go backwards.
      assert(i == 0 || outbox[i - 1].emit <= outbox[i].emit);
#endif
      merge_scratch_.push_back(
          MergeRef{outbox[i].emit, outbox[i].path, outbox[i].lineage, d, i});
    }
  }
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const MergeRef& a, const MergeRef& b) {
              if (a.emit != b.emit) return a.emit < b.emit;
              for (std::size_t h = 0; h < sim::SchedPath::kDepth; ++h) {
                if (a.path.hops[h] != b.path.hops[h])
                  return a.path.hops[h] < b.path.hops[h];
              }
              if (a.lineage != b.lineage) return a.lineage < b.lineage;
              if (a.domain != b.domain) return a.domain < b.domain;
              return a.idx < b.idx;
            });
  for (std::size_t i = 0; i < merge_scratch_.size(); ++i) {
    const MergeRef& m = merge_scratch_[i];
#ifndef NDEBUG
    // Tie-break contract, merged half: the traversal order is globally
    // time-sorted — equal-time entries were never reordered past a later
    // instant (and within one instant follow the causal-stamp order).
    assert(i == 0 || merge_scratch_[i - 1].emit <= m.emit);
#endif
    Deferred& e = domains_[m.domain].outbox[m.idx];
    topology_->compute_route(e.packet.src, e.packet.dst, route_scratch_);
    const sim::SimTime arrival = traverse(route_scratch_.view(), e.packet.wire_bytes, e.emit);
    // The conservative guarantee that makes deferral safe: nothing can
    // arrive before the window that just closed ended.
    assert(arrival >= engine_.window_floor());
    // The delivery's stamp: scheduled at its emit instant with the sender's
    // ancestry behind it, anchored by this injection (stamps ascend in
    // merge order, so descendants of earlier deliveries sort first — the
    // sequential execution order).
    const sim::SchedPath dpath{
        {e.emit, e.path.hops[0], e.path.hops[1], e.path.hops[2]}};
    schedule_delivery_on(nic_domain_[e.packet.dst.index()], std::move(e.packet),
                         arrival, dpath, /*lineage=*/++inject_stamp_);
  }
  for (auto& d : domains_) d.outbox.clear();
}

std::uint64_t Fabric::send(Packet&& p) {
  assert(p.src.valid() && p.src.index() < nics_.size() && "send from unattached NIC");
  assert(p.dst.valid() && p.dst.index() < nics_.size() && "send to unattached NIC");
  assert(p.src != p.dst && "fabric does not loop back");

  if (!domains_.empty()) {
    // PDES: defer everything to the window merge. No wire state is touched
    // here — links, switches, and the route scratch are coordinator-owned.
    // Eligibility guarantees a fault-free run (asserted), so skipping the
    // fault decision is exactly what the sequential path would do.
    assert(faults_.rule_count() == 0 && "PDES runs must be fault-free");
    DomainState& ds = domains_[static_cast<std::size_t>(nic_domain_[p.src.index()])];
    p.id = ds.next_packet_id++;
    const std::uint64_t flow = p.id;
    ++ds.packets_sent;
    ds.bytes_sent += p.wire_bytes;
    ds.packet_bytes.record(p.wire_bytes);
    const sim::SimTime emit = engine_.now();
    if (tracer_ && tracer_->enabled()) {
      tracer_->record(emit, trace_comp_, trace_ev_inject_, p.src.value(), p.dst.value(),
                      static_cast<std::int64_t>(p.wire_bytes),
                      static_cast<std::int64_t>(flow), obs::FlowPhase::kStart);
    }
    ds.outbox.push_back(Deferred{emit, engine_.current_event_path(),
                                 engine_.current_event_lineage(), std::move(p)});
    return flow;
  }

  p.id = next_packet_id_++;
  const std::uint64_t flow = p.id;
  ++packets_sent_;
  bytes_sent_ += p.wire_bytes;
  packet_bytes_.record(p.wire_bytes);

  const FaultAction action = faults_.decide(p);
  topology_->compute_route(p.src, p.dst, route_scratch_);
  const RouteView route = route_scratch_.view();
  sim::SimTime arrival = traverse(route, p.wire_bytes, engine_.now());
  if (action == FaultAction::kReorder) {
    // The packet still occupies the wire normally; it is merely held back
    // past later traffic, so it arrives out of order at the destination.
    arrival += faults_.last_reorder_delay();
  }
  if (action == FaultAction::kCorrupt) {
    // Corruption is invisible to the wire: full traversal and delivery,
    // discarded by the destination NIC's CRC check.
    p.corrupted = true;
  }

  if (tracer_ && tracer_->enabled()) {
    // A dropped packet never delivers, so it gets no flow start — a start
    // without a finish would render as a dangling arrow.
    const bool dropped = action == FaultAction::kDrop;
    tracer_->record(engine_.now(), trace_comp_,
                    dropped ? trace_ev_drop_ : trace_ev_inject_, p.src.value(),
                    p.dst.value(), static_cast<std::int64_t>(p.wire_bytes),
                    static_cast<std::int64_t>(flow),
                    dropped ? obs::FlowPhase::kNone : obs::FlowPhase::kStart);
  }

  if (action == FaultAction::kDrop) {  // lost on the wire
    ++packets_dropped_;
    return flow;
  }
  if (action == FaultAction::kDuplicate) {
    // The duplicate rides the same route; it still traverses the links
    // again (a second wire occupancy), which is the modeled behavior.
    Packet copy = p.duplicate();
    const sim::SimTime arrival2 = traverse(route, copy.wire_bytes, engine_.now());
    schedule_delivery(std::move(copy), arrival2);
  }
  schedule_delivery(std::move(p), arrival);
  return flow;
}

sim::SimTime Fabric::broadcast(NicAddr src, NicAddr first, NicAddr last,
                               std::uint32_t wire_bytes, PacketPayload body,
                               int min_top_level) {
  assert(first.value() <= last.value());
  assert(last.index() < nics_.size());
  // Hardware broadcast mutates fabric-wide shared state (the epoch scratch,
  // every trunk on the climb); the barriers that use it (gsync/hgsync) are
  // excluded from PDES eligibility, so this path stays sequential-only.
  assert(domains_.empty() && "hardware broadcast requires a sequential engine");
  // The broadcast climbs to at least the level spanning the whole range.
  int top = std::max(1, min_top_level);
  for (std::int32_t d = first.value(); d <= last.value(); ++d) {
    top = std::max(top, topology_->merge_level(src, NicAddr(d)));
  }
  // Each physical link carries the broadcast exactly once; the switches
  // fork the copies. Remember the head time after each traversed link
  // (plus its following switch) so shared prefixes ride the same
  // transmission. The scratch vector is epoch-stamped: entries from
  // earlier broadcasts are stale by epoch mismatch, so no per-call clear.
  const std::uint64_t epoch = ++bcast_epoch_;
  sim::SimTime latest = engine_.now();
  for (std::int32_t d = first.value(); d <= last.value(); ++d) {
    const NicAddr dst(d);
    Packet p(src, dst, wire_bytes, body.clone());
    p.id = next_packet_id_++;
    if (tracer_ && tracer_->enabled()) {
      // One flow start per replica: each copy draws its own arrow from the
      // source track even though shared links carry one transmission.
      tracer_->record(engine_.now(), trace_comp_, trace_ev_inject_, src.value(),
                      dst.value(), static_cast<std::int64_t>(wire_bytes),
                      static_cast<std::int64_t>(p.id), obs::FlowPhase::kStart);
    }
    ++packets_sent_;
    bytes_sent_ += wire_bytes;
    packet_bytes_.record(wire_bytes);
    topology_->compute_broadcast_route(src, dst, top, route_scratch_);
    const RouteView route = route_scratch_.view();
    assert(route.links.size() == route.switches.size() + 1);
    sim::SimTime head = engine_.now();
    for (std::size_t i = 0; i < route.links.size(); ++i) {
      auto& [seen_epoch, head_after] = bcast_head_scratch_[route.links[i].index()];
      if (seen_epoch == epoch) {
        head = head_after;
        continue;
      }
      Link& l = links_[route.links[i].index()];
      head = l.reserve(head, wire_bytes) + l.latency();
      if (i < route.switches.size()) {
        SwitchNode& s = switches_[route.switches[i].index()];
        s.note_forwarded(wire_bytes);
        head += s.routing_delay();
      }
      seen_epoch = epoch;
      head_after = head;
    }
    const sim::SimTime arrival =
        head + links_[route.links.back().index()].serialization(wire_bytes);
    latest = std::max(latest, arrival);
    schedule_delivery(std::move(p), arrival);
  }
  if (tracer_ && tracer_->enabled()) {
    tracer_->record(engine_.now(), trace_comp_, trace_ev_bcast_, src.value(),
                    first.value(), last.value());
  }
  return latest;
}

sim::SimDuration Fabric::unloaded_latency(NicAddr src, NicAddr dst,
                                          std::uint32_t bytes) const {
  // Only the hop counts matter; a local scratch keeps the query const.
  RouteScratch scratch;
  topology_->compute_route(src, dst, scratch);
  const Link probe(params_.link);
  sim::SimDuration total = probe.serialization(bytes);
  total += params_.link.latency * static_cast<std::int64_t>(scratch.num_links);
  total += params_.sw.routing_delay * static_cast<std::int64_t>(scratch.num_switches);
  return total;
}

}  // namespace qmb::net
