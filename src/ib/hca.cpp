#include "ib/hca.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/coll_tag.hpp"

namespace qmb::ib {

// Every request body must ride inline in the packet payload — the fabric
// packet path is allocation-free and retransmission records clone bodies.
static_assert(sizeof(IbWrite) <= net::PacketPayload::kInlineCapacity);
static_assert(sizeof(IbAck) <= net::PacketPayload::kInlineCapacity);
static_assert(sizeof(IbCollNack) <= net::PacketPayload::kInlineCapacity);

Hca::Hca(sim::Engine& engine, net::Fabric& fabric, const IbConfig& config,
         int node_index, sim::Tracer* tracer, bool skip_retransmit)
    : engine_(&engine),
      fabric_(&fabric),
      config_(&config),
      node_(node_index),
      tracer_(tracer),
      unit_(engine),
      skip_retransmit_(skip_retransmit) {
  if (tracer_) trace_comp_ = tracer_->intern("ib");
  auto& reg = engine_->metrics();
  stats_.writes_posted = reg.counter("ib.writes_posted", node_);
  stats_.acks_sent = reg.counter("ib.acks_sent", node_);
  stats_.naks_sent = reg.counter("ib.naks_sent", node_);
  stats_.retransmissions = reg.counter("ib.retransmissions", node_);
  stats_.rto_fires = reg.counter("ib.rto_fires", node_);
  stats_.duplicates = reg.counter("ib.duplicates_dropped", node_);
  stats_.ops_completed = reg.counter("ib.ops_completed", node_);
  stats_.early_buffered = reg.counter("ib.early_buffered", node_);
  stats_.stale_dropped = reg.counter("ib.stale_dropped", node_);
  stats_.nacks_received = reg.counter("ib.naks_received", node_);
  stats_.crc_dropped = reg.counter("nic.crc_dropped", node_);
  addr_ = fabric_->attach([this](net::Packet&& p) {
    if (p.corrupted) {  // ICRC check: discard before the transport sees it
      ++stats_.crc_dropped;
      trace("crc_drop", p.src.value(), 0, static_cast<std::int64_t>(p.id));
      return;
    }
    on_packet(std::move(p));
  });
}

void Hca::trace(std::string_view event, std::int64_t a, std::int64_t b,
                std::int64_t flow) {
  if (tracer_ && tracer_->enabled()) {
    tracer_->record(engine_->now(), trace_comp_, tracer_->intern(event), node_, a, b,
                    flow);
  }
}

// --- RC transport ---

void Hca::post_write(int dst_node, IbWrite body, std::uint32_t payload_bytes) {
  const std::uint32_t wire = config_->header_bytes + payload_bytes;
  unit_.exec(config_->qp_process, [this, dst_node, body, wire]() mutable {
    const std::uint32_t slot = peers_.slot(dst_node);
    SendQp& q = peers_.at(slot).send;
    IbWrite stamped = body;
    stamped.psn = q.next_psn++;
    q.unacked.push_back({stamped, wire});
    ++stats_.writes_posted;
    const std::uint64_t flow = fabric_->send(
        net::Packet(addr_, net::NicAddr(dst_node), wire, stamped));
    trace("rdma_write", dst_node, stamped.psn, static_cast<std::int64_t>(flow));
    if (!q.timer_armed) arm_rto(dst_node, slot);
  });
}

void Hca::on_packet(net::Packet&& p) {
  const int src = p.src.value();
  const std::uint64_t flow = p.id;
  if (const auto* w = net::body_as<IbWrite>(p)) {
    const IbWrite body = *w;
    if (body.imm_class == IbWrite::ImmClass::kGroup) {
      // Unacknowledged: no PSN check and no ACK. The group's window sorts
      // out duplicates and stale arrivals; its NACK timer recovers losses.
      unit_.exec(config_->rx_process, [this, body, flow] {
        trace("coll_recv", static_cast<std::int64_t>(body.src_rank),
              core::BarrierTag::encode(body.group, body.seq, body.tag),
              static_cast<std::int64_t>(flow));
        if (auto* g = groups_.arriving(body.group)) {
          groups_.arrive(*g, body.seq, static_cast<int>(body.src_rank), body.tag, body.value);
        }
      });
      return;
    }
    unit_.exec(config_->rx_process, [this, src, body, flow] {
      trace("rx", src, body.psn, static_cast<std::int64_t>(flow));
      accept_request(src, body);
    });
    return;
  }
  if (const auto* a = net::body_as<IbAck>(p)) {
    const IbAck ack = *a;
    unit_.exec(config_->ack_process, [this, src, ack] { handle_ack(src, ack); });
    return;
  }
  if (const auto* n = net::body_as<IbCollNack>(p)) {
    const IbCollNack nack = *n;
    unit_.exec(config_->ack_process, [this, nack, flow] {
      groups_.on_nack(nack.group, nack.seq, nack.tag, static_cast<int>(nack.dst_rank), flow);
    });
    return;
  }
  throw std::logic_error("unhandled packet body type at IB HCA");
}

void Hca::accept_request(int src_node, const IbWrite& w) {
  RecvQp& q = peers_[src_node].recv;
  if (w.psn == q.expected_psn) {
    ++q.expected_psn;
    q.nak_outstanding = false;
    send_ack(src_node, q.expected_psn, /*nak=*/false);
    // The immediate data CQEs into host memory; the host layer adds its
    // own poll cost on top.
    unit_.exec(config_->cq_dma, [this, w] {
      if (host_msg_handler_) host_msg_handler_({static_cast<int>(w.src_rank), w.tag, w.value});
    });
    return;
  }
  if (w.psn > q.expected_psn) {
    // Sequence gap: an earlier request was lost (or is straggling). RC
    // discards out-of-order arrivals and asks the sender to go back.
    trace("psn_gap", src_node, w.psn);
    if (!q.nak_outstanding) {
      q.nak_outstanding = true;  // one NAK per gap until progress resumes
      send_ack(src_node, q.expected_psn, /*nak=*/true);
    }
    return;
  }
  // Duplicate of an already-accepted request (retransmission overlap or an
  // injected duplicate): drop it but re-ACK, or a sender whose ACK was
  // lost retransmits forever.
  ++stats_.duplicates;
  send_ack(src_node, q.expected_psn, /*nak=*/false);
}

void Hca::send_ack(int dst_node, std::uint32_t psn, bool nak) {
  unit_.exec(config_->ack_process, [this, dst_node, psn, nak] {
    if (nak) {
      ++stats_.naks_sent;
    } else {
      ++stats_.acks_sent;
    }
    IbAck a;
    a.psn = psn;
    a.nak = nak;
    const std::uint64_t flow = fabric_->send(
        net::Packet(addr_, net::NicAddr(dst_node), config_->ack_bytes, a));
    trace(nak ? "nak" : "ack", dst_node, psn, static_cast<std::int64_t>(flow));
  });
}

void Hca::handle_ack(int peer, const IbAck& a) {
  const std::uint32_t slot = peers_.slot(peer);
  SendQp& q = peers_.at(slot).send;
  while (!q.unacked.empty() && q.unacked.front().body.psn < a.psn) {
    q.unacked.pop_front();
    q.retries = 0;  // progress: the RTO returns to its base
  }
  if (a.nak) {
    trace("nak_rx", peer, a.psn);
    if (skip_retransmit_) return;  // planted bug: recovery disabled
    retransmit_window(peer, slot);
    return;
  }
  if (q.unacked.empty()) {
    if (q.timer_armed) {
      engine_->cancel(q.rto_timer);
      q.timer_armed = false;
    }
  } else if (!skip_retransmit_) {
    // Progress: restart the timer for the new oldest unacked request.
    if (q.timer_armed) engine_->cancel(q.rto_timer);
    q.timer_armed = false;
    arm_rto(peer, slot);
  }
}

void Hca::arm_rto(int peer, std::uint32_t slot) {
  if (skip_retransmit_) return;
  SendQp& q = peers_.at(slot).send;
  assert(!q.timer_armed);
  q.timer_armed = true;
  // Doubled on each consecutive expiry (RFC 6298 Sec. 5.5), so a receiver
  // that is only slow to ACK is not flooded with replays.
  q.rto_timer = engine_->schedule(config_->rto * (std::int64_t{1} << q.retries),
                                  [this, peer, slot] {
    SendQp& sq = peers_.at(slot).send;
    sq.timer_armed = false;
    if (sq.unacked.empty()) return;
    ++stats_.rto_fires;
    trace("rto_fire", peer, sq.unacked.front().body.psn);
    if (sq.retries == kRetryCount) {
      std::string what = "ib: retry count exceeded on QP ";
      what += std::to_string(node_);
      what += " -> ";
      what += std::to_string(peer);
      throw std::runtime_error(what);
    }
    ++sq.retries;
    retransmit_window(peer, slot);
  });
}

void Hca::retransmit_window(int peer, std::uint32_t slot) {
  SendQp& q = peers_.at(slot).send;
  if (q.unacked.empty()) return;
  if (q.timer_armed) {
    engine_->cancel(q.rto_timer);
    q.timer_armed = false;
  }
  // Go-back-N: replay the whole unacked window in PSN order under one WQE
  // re-fetch charge; the receiver's PSN check discards any overlap.
  unit_.exec(config_->qp_process, [this, peer, slot] {
    SendQp& sq = peers_.at(slot).send;
    for (const PendingWrite& pw : sq.unacked) {
      ++stats_.retransmissions;
      const std::uint64_t flow = fabric_->send(
          net::Packet(addr_, net::NicAddr(peer), pw.wire_bytes, pw.body));
      trace("retransmit", peer, pw.body.psn, static_cast<std::int64_t>(flow));
    }
    if (!sq.unacked.empty() && !sq.timer_armed) arm_rto(peer, slot);
  });
}

// --- collective group engine (the paper's protocol on verbs) ---

void Hca::send_edge(Groups::Group& g, std::uint32_t seq, const coll::Edge& e, int dst_node,
                    std::uint32_t payload, std::int64_t value, bool retransmit) {
  // A barrier edge is a zero-byte RDMA write whose immediate data is the
  // whole protocol header — the verbs rendition of the paper's "RDMA
  // operations with no data transfer can fire a remote event". Value
  // collectives put their payload words through the same write. It lands
  // in the group's static slot unacknowledged: one packet per edge.
  IbWrite body;
  body.imm_class = IbWrite::ImmClass::kGroup;
  body.group = g.desc.group_id;
  body.seq = seq;
  body.tag = e.tag;
  body.src_rank = static_cast<std::uint32_t>(g.desc.my_rank);
  body.value = value;
  const std::uint32_t wire =
      config_->header_bytes + (g.desc.op_kind == coll::OpKind::kBarrier ? 0u : payload);
  unit_.exec(config_->qp_process, [this, dst_node, body, wire, retransmit] {
    if (retransmit) {
      ++stats_.retransmissions;
    } else {
      ++stats_.writes_posted;
    }
    const std::uint64_t flow =
        fabric_->send(net::Packet(addr_, net::NicAddr(dst_node), wire, body));
    // The b operand carries the BarrierTag-encoded group/seq/edge tag, as
    // in the Myrinet engine's record, so trace_report can attribute rounds
    // and groups in multi-tenant runs.
    trace("coll_send", dst_node, core::BarrierTag::encode(body.group, body.seq, body.tag),
          static_cast<std::int64_t>(flow));
  });
}

void Hca::send_nack(const coll::GroupDesc& d, std::uint32_t seq, std::uint32_t tag,
                    int peer_node) {
  IbCollNack nack;
  nack.group = d.group_id;
  nack.seq = seq;
  nack.tag = tag;
  nack.dst_rank = static_cast<std::uint32_t>(d.my_rank);
  unit_.exec(config_->ack_process, [this, peer_node, nack] {
    ++stats_.naks_sent;
    const std::uint64_t flow = fabric_->send(
        net::Packet(addr_, net::NicAddr(peer_node), config_->ack_bytes, nack));
    trace("coll_nack", peer_node, core::BarrierTag::encode(nack.group, nack.seq, nack.tag),
          static_cast<std::int64_t>(flow));
  });
}

}  // namespace qmb::ib
