#include "quadrics/nic.hpp"

#include <stdexcept>
#include <string>

#include "core/coll_tag.hpp"

namespace qmb::elan {

Nic::Nic(sim::Engine& engine, net::Fabric& fabric, const Elan3Config& config,
         int node_index, sim::Tracer* tracer)
    : engine_(&engine),
      fabric_(&fabric),
      config_(&config),
      node_(node_index),
      tracer_(tracer),
      unit_(engine) {
  if (tracer_) trace_comp_ = tracer_->intern("elan");
  auto& reg = engine_->metrics();
  stats_.rdma_issued = reg.counter("elan.rdma_issued", node_);
  stats_.events_fired = reg.counter("elan.events_fired", node_);
  stats_.host_notifies = reg.counter("elan.host_notifies", node_);
  stats_.ops_completed = reg.counter("elan.barrier_ops_completed", node_);
  stats_.early_buffered = reg.counter("elan.early_buffered", node_);
  stats_.crc_dropped = reg.counter("nic.crc_dropped", node_);
  addr_ = fabric_->attach([this](net::Packet&& p) {
    if (p.corrupted) {  // inbound CRC check: discard before the event unit
      ++stats_.crc_dropped;
      trace("crc_drop", p.src.value(), 0, static_cast<std::int64_t>(p.id));
      return;
    }
    on_packet(std::move(p));
  });
}

void Nic::trace(std::string_view event, std::int64_t a, std::int64_t b,
                std::int64_t flow) {
  if (tracer_ && tracer_->enabled()) {
    tracer_->record(engine_->now(), trace_comp_, tracer_->intern(event), node_, a, b,
                    flow);
  }
}

void Nic::rdma_put(int dst_node, std::uint32_t bytes, ElanRdma body) {
  unit_.exec(config_->rdma_issue, [this, dst_node, bytes, body] {
    ++stats_.rdma_issued;
    const std::uint64_t flow = fabric_->send(net::Packet(
        addr_, net::NicAddr(dst_node), config_->header_bytes + bytes, body));
    // The RDMA-chain trigger: operands are the destination and the
    // BarrierTag-encoded group/seq/edge tag (host-message tags arrive
    // pre-encoded by the host executors; barrier-chain events carry the
    // group so multi-tenant traces stay attributable); flow ties it to the
    // wire hop.
    const std::uint32_t b =
        body.ev_class == ElanRdma::EventClass::kBarrier
            ? core::BarrierTag::encode(body.group, body.seq, body.tag)
            : body.tag;
    trace("rdma_trigger", dst_node, b, static_cast<std::int64_t>(flow));
  });
}

void Nic::on_packet(net::Packet&& p) {
  if (const auto* r = net::body_as<ElanRdma>(p)) {
    const ElanRdma body = *r;
    const std::uint64_t flow = p.id;
    // The event unit fires the remote event attached to the put.
    unit_.exec(config_->event_fire, [this, body, flow] {
      ++stats_.events_fired;
      trace("event_fire", static_cast<std::int64_t>(body.src_rank), body.tag,
            static_cast<std::int64_t>(flow));
      switch (body.ev_class) {
        case ElanRdma::EventClass::kBarrier:
          // A hardware-reliable network delivers exactly once: nothing
          // arrives stale or twice, so only early arrivals are ever counted.
          if (auto* g = groups_.arriving(body.group)) {
            groups_.arrive(*g, body.seq, static_cast<int>(body.src_rank), body.tag, body.value);
          }
          return;
        case ElanRdma::EventClass::kHostMsg:
          // The event word DMAs into host memory; the host layer adds its
          // own poll cost on top.
          unit_.exec(config_->host_notify_dma, [this, body] {
            ++stats_.host_notifies;
            if (host_msg_handler_) {
              host_msg_handler_({static_cast<int>(body.src_rank), body.tag, body.value});
            }
          });
          return;
      }
    });
    return;
  }
  if (const auto* probe = net::body_as<TsetProbe>(p)) {
    const TsetProbe body = *probe;
    const std::uint64_t flow = p.id;
    unit_.exec(config_->tset_probe, [this, body, flow] {
      trace("tset_probe", static_cast<std::int64_t>(body.round), 0,
            static_cast<std::int64_t>(flow));
      if (probe_handler_) probe_handler_(body);
    });
    return;
  }
  if (const auto* go = net::body_as<TsetGo>(p)) {
    const TsetGo body = *go;
    const std::uint64_t flow = p.id;
    unit_.exec(config_->event_fire, [this, body, flow] {
      trace("tset_go", static_cast<std::int64_t>(body.round), 0,
            static_cast<std::int64_t>(flow));
      if (go_handler_) go_handler_(body);
    });
    return;
  }
  throw std::logic_error("unhandled packet body type at Elan NIC");
}

void Nic::send_edge(Groups::Group& g, std::uint32_t seq, const coll::Edge& e, int dst_node,
                    std::uint32_t payload, std::int64_t value, bool /*retransmit*/) {
  // For a barrier this is a zero-byte RDMA put that only fires the peer's
  // chained event (paper Sec. 7: "RDMA operations with no data transfer
  // can be utilized to fire a remote event"); value collectives put their
  // payload words through the same descriptor.
  ElanRdma body;
  body.ev_class = ElanRdma::EventClass::kBarrier;
  body.group = g.desc.group_id;
  body.seq = seq;
  body.tag = e.tag;
  body.src_rank = static_cast<std::uint32_t>(g.desc.my_rank);
  body.value = value;
  rdma_put(dst_node, g.desc.op_kind == coll::OpKind::kBarrier ? 0u : payload, body);
}

}  // namespace qmb::elan
