#include "myrinet/collective.hpp"

#include "core/coll_tag.hpp"

namespace qmb::myri {

CollectiveEngine::CollectiveEngine(Nic& nic) : nic_(nic), cfg_(nic.lanai()) {
  auto& reg = nic_.engine().metrics();
  const int node = nic_.node();
  stats_.msgs_sent = reg.counter("coll.msgs_sent", node);
  stats_.msgs_received = reg.counter("coll.msgs_received", node);
  stats_.duplicates = reg.counter("coll.duplicates", node);
  stats_.early_buffered = reg.counter("coll.early_buffered", node);
  stats_.stale_dropped = reg.counter("coll.stale_dropped", node);
  stats_.nacks_sent = reg.counter("coll.nacks_sent", node);
  stats_.nacks_received = reg.counter("coll.nacks_received", node);
  stats_.retransmissions = reg.counter("coll.retransmissions", node);
  stats_.acks_sent = reg.counter("coll.acks_sent", node);
  stats_.ops_completed = reg.counter("coll.ops_completed", node);
}

std::uint32_t CollectiveEngine::send_cycles(const CollFeatures& f) const {
  std::uint32_t c = cfg_.cyc_coll_trigger;
  if (!f.dedicated_queue) c += cfg_.cyc_token_schedule;   // walk the p2p queues
  if (!f.static_packet) c += cfg_.cyc_claim_packet + cfg_.cyc_release_packet;
  if (!f.bitvector_record) c += cfg_.cyc_record_per_msg;  // one record per message
  return c;
}

std::uint64_t CollectiveEngine::msg_key(std::uint32_t group, std::uint32_t seq,
                                        std::uint32_t tag, int peer) {
  // group(16) | seq(24) | tag(12) | peer(12) — ample for any simulated run.
  return (static_cast<std::uint64_t>(group & 0xFFFF) << 48) |
         (static_cast<std::uint64_t>(seq & 0xFFFFFF) << 24) |
         (static_cast<std::uint64_t>(tag & 0xFFF) << 12) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer) & 0xFFF);
}

void CollectiveEngine::charge_enter(const GroupDesc& d, sim::EventCallback&& start) {
  // A contribution larger than the static packet is pulled from host memory
  // by DMA before the operation arms; integer-sized contributions ride the
  // doorbell.
  if (d.payload_bytes > cfg_.coll_static_payload) {
    nic_.pci().dma(d.payload_bytes, nullptr);
  }
  nic_.exec(cfg_.cyc_coll_init, std::move(start));
}

void CollectiveEngine::send_edge(Group& g, std::uint32_t seq, const coll::Edge& e,
                                 int dst_node, std::uint32_t payload, std::int64_t value,
                                 bool retransmit) {
  const CollFeatures& f = g.desc.features;
  std::uint32_t cyc = retransmit ? cfg_.cyc_retransmit : send_cycles(f);
  // A payload beyond the padded static packet's capacity cannot use the
  // fast path: it claims/releases a pool buffer like a regular message
  // (Sec. 6.2's optimization only applies to integer-sized payloads).
  if (!retransmit && f.static_packet && payload > cfg_.coll_static_payload) {
    cyc += cfg_.cyc_claim_packet + cfg_.cyc_release_packet;
  }
  const std::uint32_t group_id = g.desc.group_id;
  const int my_rank = g.desc.my_rank;
  const std::uint32_t tag = e.tag;
  const std::uint32_t wire = cfg_.header_bytes + payload;

  nic_.exec(cyc, [this, group_id, seq, tag, my_rank, dst_node, value, wire] {
    CollPacket body;
    body.group = group_id;
    body.barrier_seq = seq;
    body.tag = tag;
    body.src_rank = static_cast<std::uint32_t>(my_rank);
    body.value = value;
    const std::uint64_t flow =
        nic_.inject(net::Packet(nic_.addr(), net::NicAddr(dst_node), wire, body));
    ++stats_.msgs_sent;
    // Operands: destination node and the BarrierTag-encoded group/seq/edge
    // tag, so multi-tenant traces stay attributable per group; flow ties
    // this trigger to its fabric hop.
    nic_.trace("coll_send", dst_node,
               core::BarrierTag::encode(group_id, seq, tag),
               static_cast<std::int64_t>(flow));
  });

  if (retransmit) {
    ++stats_.retransmissions;
    return;
  }
  if (!f.receiver_driven) {
    // Ablation: sender-driven reliability — per-message record + timeout.
    const std::uint64_t key = msg_key(group_id, seq, tag, e.peer);
    MsgRecord rec{group_id, seq, e, {}};
    auto [it, inserted] = msg_records_.emplace(key, std::move(rec));
    if (!inserted) return;  // identical send edge already tracked
    arm_msg_timer(&g, key, seq);
  }
}

void CollectiveEngine::arm_msg_timer(Group* gp, std::uint64_t key, std::uint32_t seq) {
  auto it = msg_records_.find(key);
  if (it == msg_records_.end()) return;
  it->second.timer = nic_.engine().schedule(cfg_.ack_timeout, [this, gp, key, seq] {
    auto rit = msg_records_.find(key);
    if (rit == msg_records_.end()) return;  // ACKed meanwhile
    const coll::Edge edge = rit->second.edge;
    const auto* slot = gp->window->find(seq);
    const std::int64_t value = slot != nullptr && slot->has_sent(edge.id)
                                   ? Groups::resend_value(*gp, *slot, edge.id)
                                   : 0;
    groups_.send(*gp, seq, edge, value, true);
    arm_msg_timer(gp, key, seq);
  });
}

void CollectiveEngine::charge_complete(const GroupDesc& d, coll::Completion&& c) {
  // One completion DMA to host memory — the only PCI traffic on the
  // completion path of a NIC-based collective. It carries the result
  // payload: one word for the classic collectives, the gathered data for
  // larger ones.
  const std::uint32_t result_bytes =
      d.op_kind == coll::OpKind::kBarrier
          ? 8u
          : d.payload_bytes * static_cast<std::uint32_t>(coll::value_words(d.op_kind, c.result));
  nic_.exec(cfg_.cyc_coll_complete, [this, result_bytes, c = std::move(c)]() mutable {
    nic_.pci().dma(result_bytes, std::move(c));
  });
}

void CollectiveEngine::send_nack(const GroupDesc& d, std::uint32_t seq, std::uint32_t tag,
                                 int peer_node) {
  const std::uint32_t group_id = d.group_id;
  const int my_rank = d.my_rank;
  nic_.exec(cfg_.cyc_coll_nack, [this, group_id, seq, tag, my_rank, peer_node] {
    CollNack body;
    body.group = group_id;
    body.barrier_seq = seq;
    body.tag = tag;
    body.dst_rank = static_cast<std::uint32_t>(my_rank);
    const std::uint64_t flow =
        nic_.inject(net::Packet(nic_.addr(), net::NicAddr(peer_node),
                                coll_wire_bytes(cfg_.header_bytes), body));
    ++stats_.nacks_sent;
    nic_.trace("coll_nack", peer_node,
               core::BarrierTag::encode(group_id, seq, tag),
               static_cast<std::int64_t>(flow));
  });
}

bool CollectiveEngine::on_packet(net::Packet&& p) {
  if (const auto* c = net::body_as<CollPacket>(p)) {
    const CollPacket body = *c;
    const std::uint64_t flow = p.id;
    nic_.exec(cfg_.cyc_coll_recv, [this, body, flow] {
      Group* gp = groups_.arriving(body.group);
      if (gp == nullptr) return;
      Group& g = *gp;
      nic_.trace("coll_recv", static_cast<std::int64_t>(body.src_rank),
                 core::BarrierTag::encode(body.group, body.barrier_seq, body.tag),
                 static_cast<std::int64_t>(flow));
      if (!g.desc.features.bitvector_record) {
        nic_.cpu().occupy(cfg_.cycles(cfg_.cyc_record_per_msg));
      }
      ++stats_.msgs_received;
      if (!g.desc.features.receiver_driven) {
        // Ablation: acknowledge every collective message.
        nic_.exec(cfg_.cyc_make_ack, [this, body, &g] {
          CollAck ack;
          ack.group = body.group;
          ack.barrier_seq = body.barrier_seq;
          ack.tag = body.tag;
          ack.acker_rank = static_cast<std::uint32_t>(g.desc.my_rank);
          const int src_node =
              g.desc.rank_to_node->at(static_cast<std::size_t>(body.src_rank));
          nic_.inject(net::Packet(nic_.addr(), net::NicAddr(src_node),
                                  ack_wire_bytes(cfg_.header_bytes), ack));
          ++stats_.acks_sent;
        });
      }
      groups_.arrive(g, body.barrier_seq, static_cast<int>(body.src_rank), body.tag,
                     body.value);
    });
    return true;
  }
  if (const auto* n = net::body_as<CollNack>(p)) {
    const CollNack body = *n;
    const std::uint64_t flow = p.id;
    nic_.exec(cfg_.cyc_coll_nack, [this, body, flow] {
      groups_.on_nack(body.group, body.barrier_seq, body.tag, static_cast<int>(body.dst_rank),
                      flow);
    });
    return true;
  }
  if (const auto* a = net::body_as<CollAck>(p)) {
    const CollAck body = *a;
    nic_.exec(cfg_.cyc_process_ack, [this, body] { handle_ack(body); });
    return true;
  }
  return false;
}

void CollectiveEngine::handle_ack(const CollAck& a) {
  if (groups_.find(a.group) == nullptr) return;
  const std::uint64_t key =
      msg_key(a.group, a.barrier_seq, a.tag, static_cast<int>(a.acker_rank));
  auto it = msg_records_.find(key);
  if (it == msg_records_.end()) return;
  nic_.engine().cancel(it->second.timer);
  msg_records_.erase(it);
}

DirectEngine::DirectEngine(Nic& nic, Mcp& mcp) : nic_(nic), mcp_(mcp) {
  mcp_.set_nic_consumer([this](const RecvEvent& ev) { on_message(ev); });
}

void DirectEngine::send_edge(Group& g, std::uint32_t seq, const coll::Edge& e, int dst_node,
                             std::uint32_t /*payload*/, std::int64_t /*value*/,
                             bool /*retransmit*/) {
  // The message's one integer names its sender, as on every other wire.
  mcp_.nic_send(dst_node, core::BarrierTag::encode(g.desc.group_id, seq, e.tag),
                g.desc.my_rank);
}

void DirectEngine::charge_complete(const coll::GroupDesc&, coll::Completion&& c) {
  // The NIC posts one event record to the host.
  nic_.exec(nic_.lanai().cyc_post_recv_event,
            [this, c = std::move(c)]() mutable { nic_.pci().dma(8, std::move(c)); });
}

void DirectEngine::on_message(const RecvEvent& ev) {
  using core::BarrierTag;
  Group* g = groups_.arriving(BarrierTag::group(ev.tag));
  if (g == nullptr) return;
  groups_.arrive(*g, BarrierTag::widen_seq(BarrierTag::seq_low(ev.tag), g->window->next_seq()),
                 static_cast<int>(ev.value), BarrierTag::edge_tag(ev.tag), 0);
}

}  // namespace qmb::myri
