#include "myrinet/collective.hpp"

#include <cassert>
#include <stdexcept>

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

void CollectiveEngine::create_group(GroupDesc desc) {
  if (groups_.contains(desc.group_id)) {
    throw std::invalid_argument("collective group id already registered");
  }
  coll::check_group_desc(desc);
  // Built in place: the window's hooks hold this Group's (table-stable)
  // address.
  Group& g = groups_.emplace(desc.group_id);
  g.desc = std::move(desc);
  Group* gp = &g;
  g.window.emplace(
      g.desc.rank_schedule(), g.desc.op_kind, g.desc.reduce_op,
      Window::Hooks{
          .send =
              [this, gp](Slot& op, const coll::Edge& e) {
                op.state.sent_values[e.id] = op.acc;
                send_msg(*gp, op.seq, e, false, op.acc);
              },
          .complete = [this, gp](Slot& op) { finish_op(*gp, op); },
          .pre_start =
              [this, gp](Slot& op) {
                op.state.sent_values.resize(gp->window->schedule().edge_count());
                if (gp->desc.features.receiver_driven) arm_nack_timer(*gp, op);
                nic_.trace("coll_enter", gp->desc.group_id, op.seq);
              },
          .recycle = [this](Slot& op) { nic_.engine().cancel(op.state.nack_timer); },
      });
}

CollectiveEngine::Group& CollectiveEngine::group_of(std::uint32_t id) {
  Group* g = groups_.find(id);
  assert(g != nullptr);
  return *g;
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

std::uint32_t CollectiveEngine::wire_bytes_for(const GroupDesc& desc, std::uint32_t tag,
                                               std::int64_t value) const {
  // Allgather/alltoall messages carry one contribution per gathered rank;
  // the contribution size is the group's payload_bytes (8 for the classic
  // one-integer collectives). Broadcast ACK edges carry nothing.
  return cfg_.header_bytes +
         desc.payload_bytes *
             static_cast<std::uint32_t>(coll::edge_payload_words(desc.op_kind, tag, value));
}

void CollectiveEngine::collective_enter(std::uint32_t group, std::int64_t value,
                                        std::function<void(std::int64_t)> done) {
  // A contribution larger than the static packet is pulled from host memory
  // by DMA before the operation arms; integer-sized contributions ride the
  // doorbell.
  if (const std::uint32_t bytes = group_of(group).desc.payload_bytes;
      bytes > cfg_.coll_static_payload) {
    nic_.pci().dma(bytes, nullptr);
  }
  nic_.exec(cfg_.cyc_coll_init, [this, group, value, done = std::move(done)]() mutable {
    // The accumulator starts from this rank's contribution; early arrivals
    // replayed by the window fold on top (bcast edges replace it anyway).
    const auto started = group_of(group).window->start(value, std::move(done));
    stats_.duplicates.add(static_cast<std::uint64_t>(started.duplicates));
  });
}

void CollectiveEngine::send_msg(Group& g, std::uint32_t seq, const coll::Edge& e,
                                bool is_retransmit, std::int64_t value) {
  const CollFeatures& f = g.desc.features;
  std::uint32_t cyc = is_retransmit ? cfg_.cyc_retransmit : send_cycles(f);
  // A payload beyond the padded static packet's capacity cannot use the
  // fast path: it claims/releases a pool buffer like a regular message
  // (Sec. 6.2's optimization only applies to integer-sized payloads).
  const std::uint32_t payload = wire_bytes_for(g.desc, e.tag, value) - cfg_.header_bytes;
  if (!is_retransmit && f.static_packet && payload > cfg_.coll_static_payload) {
    cyc += cfg_.cyc_claim_packet + cfg_.cyc_release_packet;
  }
  const std::uint32_t group_id = g.desc.group_id;
  const int my_rank = g.desc.my_rank;
  const int dst_node = g.desc.rank_to_node->at(static_cast<std::size_t>(e.peer));
  const std::uint32_t tag = e.tag;
  const int peer_rank = e.peer;
  const std::uint32_t wire = wire_bytes_for(g.desc, e.tag, value);
  const coll::OpKind kind = g.desc.op_kind;

  nic_.exec(cyc, [this, group_id, seq, tag, my_rank, dst_node, value, wire, kind] {
    CollPacket body;
    switch (kind) {
      case coll::OpKind::kBarrier: body.kind = CollPacket::Kind::kBarrier; break;
      case coll::OpKind::kBcast: body.kind = CollPacket::Kind::kBcast; break;
      case coll::OpKind::kAllreduce: body.kind = CollPacket::Kind::kReduce; break;
      case coll::OpKind::kAllgather: body.kind = CollPacket::Kind::kGather; break;
      case coll::OpKind::kAlltoall: body.kind = CollPacket::Kind::kAlltoall; break;
    }
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

  if (is_retransmit) {
    ++stats_.retransmissions;
    return;
  }
  if (!f.receiver_driven) {
    // Ablation: sender-driven reliability — per-message record + timeout.
    const std::uint64_t key = msg_key(group_id, seq, tag, peer_rank);
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
    const Slot* slot = gp->window->find(seq);
    const std::int64_t value = slot != nullptr && slot->exec && slot->exec->has_sent(edge.id)
                                   ? slot->state.sent_values[edge.id]
                                   : 0;
    send_msg(*gp, seq, edge, true, value);
    arm_msg_timer(gp, key, seq);
  });
}

void CollectiveEngine::finish_op(Group& g, Slot& op) {
  ++stats_.ops_completed;
  nic_.engine().cancel(op.state.nack_timer);
  nic_.trace("coll_complete", g.desc.group_id, op.seq);
  // One completion word DMAed to host memory — the only PCI traffic on the
  // completion path of a NIC-based collective.
  auto done = std::move(op.done);
  op.done = nullptr;
  const std::int64_t result = op.acc;
  // The completion DMA delivers the result payload to host memory (one
  // word for the classic collectives, the gathered data for larger ones).
  const std::uint32_t result_bytes =
      g.desc.op_kind == coll::OpKind::kBarrier
          ? 8u
          : g.desc.payload_bytes *
                static_cast<std::uint32_t>(coll::value_words(g.desc.op_kind, result));
  nic_.exec(cfg_.cyc_coll_complete, [this, done = std::move(done), result,
                                     result_bytes]() mutable {
    nic_.pci().dma(result_bytes, [done = std::move(done), result] {
      if (done) done(result);
    });
  });
}

void CollectiveEngine::arm_nack_timer(Group& g, Slot& op) {
  Group* gp = &g;
  Slot* opp = &op;
  const std::uint32_t armed_seq = op.seq;
  op.state.nack_timer = nic_.engine().schedule(cfg_.nack_timeout, [this, gp, opp, armed_seq] {
    if (!opp->in_use || opp->seq != armed_seq || opp->complete || !opp->active) return;
    for (const coll::Edge& miss : opp->exec->missing_current_waits()) {
      const int peer_node = gp->desc.rank_to_node->at(static_cast<std::size_t>(miss.peer));
      const std::uint32_t group_id = gp->desc.group_id;
      const int my_rank = gp->desc.my_rank;
      const std::uint32_t tag = miss.tag;
      nic_.exec(cfg_.cyc_coll_nack, [this, group_id, armed_seq, tag, my_rank, peer_node] {
        CollNack body;
        body.group = group_id;
        body.barrier_seq = armed_seq;
        body.tag = tag;
        body.dst_rank = static_cast<std::uint32_t>(my_rank);
        const std::uint64_t flow =
            nic_.inject(net::Packet(nic_.addr(), net::NicAddr(peer_node),
                                    coll_wire_bytes(cfg_.header_bytes), body));
        ++stats_.nacks_sent;
        nic_.trace("coll_nack", peer_node,
                   core::BarrierTag::encode(group_id, armed_seq, tag),
                   static_cast<std::int64_t>(flow));
      });
    }
    arm_nack_timer(*gp, *opp);
  });
}

bool CollectiveEngine::on_packet(net::Packet&& p) {
  if (const auto* c = net::body_as<CollPacket>(p)) {
    const CollPacket body = *c;
    const std::uint64_t flow = p.id;
    nic_.exec(cfg_.cyc_coll_recv, [this, body, flow] {
      Group* gp = groups_.find(body.group);
      if (gp == nullptr) {
        ++stats_.stale_dropped;
        return;
      }
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
      switch (g.window->on_arrival(body.barrier_seq, static_cast<int>(body.src_rank),
                                   body.tag, body.value)) {
        case coll::Arrival::kAccepted: break;
        case coll::Arrival::kDuplicate: ++stats_.duplicates; break;
        case coll::Arrival::kEarly: ++stats_.early_buffered; break;
        case coll::Arrival::kStale: ++stats_.stale_dropped; break;
      }
    });
    return true;
  }
  if (const auto* n = net::body_as<CollNack>(p)) {
    const CollNack body = *n;
    const std::uint64_t flow = p.id;
    nic_.exec(cfg_.cyc_coll_nack, [this, body, flow] { handle_nack(body, flow); });
    return true;
  }
  if (const auto* a = net::body_as<CollAck>(p)) {
    const CollAck body = *a;
    nic_.exec(cfg_.cyc_process_ack, [this, body] { handle_ack(body); });
    return true;
  }
  return false;
}

void CollectiveEngine::handle_nack(const CollNack& n, std::uint64_t flow) {
  Group* gp = groups_.find(n.group);
  if (gp == nullptr) return;
  Group& g = *gp;
  ++stats_.nacks_received;
  nic_.trace("coll_nack_rx", n.dst_rank,
             core::BarrierTag::encode(n.group, n.barrier_seq, n.tag),
             static_cast<std::int64_t>(flow));
  const int peer = static_cast<int>(n.dst_rank);
  const coll::Edge edge{peer, n.tag, g.window->schedule().find_edge(peer, n.tag)};
  if (const Slot* slot = g.window->find(n.barrier_seq); slot != nullptr && slot->exec) {
    if (edge.id != coll::kNoEdge && slot->exec->has_sent(edge.id)) {
      if (g.desc.features.debug_skip_retransmit) return;  // fuzzer's planted bug
      send_msg(g, n.barrier_seq, edge, true, slot->state.sent_values[edge.id]);
    }
    // Not sent yet: we are behind; the normal send will cover it.
    return;
  }
  if (g.desc.op_kind == coll::OpKind::kBarrier && n.barrier_seq < g.window->next_seq()) {
    // The slot was recycled but barrier messages carry no data: the packet
    // is fully reconstructible from the NACK itself. (Value-carrying kinds
    // never need this path — a sender two operations ahead proves the
    // NACKing receiver already completed the operation; see tests.)
    send_msg(g, n.barrier_seq, edge, true, 0);
  }
  // Otherwise the receiver is ahead of us; ignore.
}

void CollectiveEngine::handle_ack(const CollAck& a) {
  if (!groups_.contains(a.group)) return;
  const std::uint64_t key =
      msg_key(a.group, a.barrier_seq, a.tag, static_cast<int>(a.acker_rank));
  auto it = msg_records_.find(key);
  if (it == msg_records_.end()) return;
  nic_.engine().cancel(it->second.timer);
  msg_records_.erase(it);
}

}  // namespace qmb::myri
