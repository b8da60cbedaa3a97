#include "myrinet/mcp.hpp"

#include <cassert>
#include <utility>

namespace qmb::myri {

Mcp::Mcp(Nic& nic)
    : nic_(nic),
      cfg_(nic.lanai()),
      pool_available_(static_cast<int>(nic.lanai().send_packet_pool)) {
  auto& reg = nic_.engine().metrics();
  const int node = nic_.node();
  stats_.data_packets_sent = reg.counter("mcp.data_packets_sent", node);
  stats_.acks_sent = reg.counter("mcp.acks_sent", node);
  stats_.retransmissions = reg.counter("mcp.retransmissions", node);
  stats_.drops_bad_seq = reg.counter("mcp.drops_bad_seq", node);
  stats_.dup_acked = reg.counter("mcp.dup_acked", node);
  stats_.drops_no_token = reg.counter("mcp.drops_no_token", node);
  stats_.tokens_completed = reg.counter("mcp.tokens_completed", node);
  stats_.buffer_stalls = reg.counter("mcp.buffer_stalls", node);
}

void Mcp::host_send_event(int dst_node, std::uint32_t bytes, std::uint32_t tag,
                          sim::EventCallback on_complete, std::int64_t inline_value) {
  nic_.exec(cfg_.cyc_process_send_event, [this, dst_node, bytes, tag, inline_value,
                                          cb = std::move(on_complete)]() mutable {
    SendToken tok;
    tok.dst = dst_node;
    tok.msg_id = next_msg_id_++;
    tok.total_bytes = bytes;
    tok.tag = tag;
    tok.inline_value = inline_value;
    tok.on_complete = std::move(cb);
    enqueue_token(std::move(tok));
  });
}

void Mcp::nic_send(int dst_node, std::uint32_t tag, std::int64_t value) {
  // Direct-scheme collective message: the NIC itself originates a send
  // token (cheaper than translating a host send event), but the full p2p
  // queue/packet/record path follows.
  nic_.exec(cfg_.cyc_nic_token, [this, dst_node, tag, value] {
    SendToken tok;
    tok.dst = dst_node;
    tok.msg_id = next_msg_id_++;
    tok.total_bytes = 8;  // one integer, as in the paper
    tok.tag = tag;
    tok.nic_sourced = true;
    tok.inline_value = value;
    enqueue_token(std::move(tok));
  });
}

void Mcp::enqueue_token(SendToken&& tok) {
  auto& q = dest_queues_[tok.dst];
  const bool was_empty = q.empty();
  const int dst = tok.dst;
  q.push_back(std::move(tok));
  if (was_empty) rr_ring_.push_back(dst);
  run_send_engine();
}

void Mcp::run_send_engine() {
  if (engine_running_ || waiting_for_buffer_ || rr_ring_.empty()) return;
  engine_running_ = true;
  nic_.exec(cfg_.cyc_token_schedule, [this] { transmit_front_fragment(); });
}

void Mcp::transmit_front_fragment() {
  assert(!rr_ring_.empty());
  if (pool_available_ == 0) {
    // Stall until an ACK releases a send buffer (paper Sec. 6.2: regular
    // messages must wait for a send packet; barrier messages should not).
    ++stats_.buffer_stalls;
    waiting_for_buffer_ = true;
    engine_running_ = false;
    return;
  }
  --pool_available_;
  nic_.exec(cfg_.cyc_claim_packet, [this] {
    const int dst = rr_ring_.front();
    auto& q = dest_queues_[dst];
    assert(!q.empty());
    SendToken& tok = q.front();
    std::uint32_t frag = tok.total_bytes - tok.injected_bytes;
    if (frag > cfg_.mtu_bytes) frag = cfg_.mtu_bytes;
    if (!tok.nic_sourced && frag > 0) {
      // SDMA: pull payload from host memory into the claimed send packet.
      nic_.pci().dma(frag, [this, frag] { finish_fragment(frag); });
    } else {
      finish_fragment(frag);
    }
  });
}

void Mcp::finish_fragment(std::uint32_t frag_bytes) {
  nic_.exec(cfg_.cyc_build_header, [this, frag_bytes] {
    const int dst = rr_ring_.front();
    auto& q = dest_queues_[dst];
    assert(!q.empty());
    SendToken& tok = q.front();

    DataPacket body;
    body.seqno = channels_[dst].next_tx_seq++;
    body.msg_id = tok.msg_id;
    body.offset = tok.injected_bytes;
    body.payload_bytes = frag_bytes;
    body.total_bytes = tok.total_bytes;
    body.tag = tok.tag;
    body.nic_sourced = tok.nic_sourced;
    body.inline_value = tok.inline_value;

    const net::NicAddr dst_addr(dst);
    const std::uint32_t wire = cfg_.header_bytes + frag_bytes;
    const std::uint64_t key = record_key(dst_addr, body.seqno);
    SendRecord rec;
    rec.dst = dst_addr;
    rec.seqno = body.seqno;
    rec.wire_bytes = wire;
    rec.body = body;
    rec.token_msg_id = tok.msg_id;
    rec.token_dst = dst;
    send_records_.emplace(key, std::move(rec));
    arm_retransmit(key);

    const std::uint64_t flow = nic_.inject(net::Packet(nic_.addr(), dst_addr, wire, body));
    ++stats_.data_packets_sent;
    nic_.trace("mcp_send", dst, tok.tag, static_cast<std::int64_t>(flow));

    tok.injected_bytes += frag_bytes;
    ++tok.frags_unacked;
    const bool done = tok.injected_bytes >= tok.total_bytes;
    if (done) {
      tok.fully_injected = true;
      inflight_tokens_.emplace(std::make_pair(dst, tok.msg_id), std::move(tok));
      q.pop_front();
    }
    // Round-robin: move this destination to the back of the ring (or drop
    // it when its queue emptied).
    rr_ring_.pop_front();
    if (!q.empty()) rr_ring_.push_back(dst);

    engine_running_ = false;
    run_send_engine();
  });
}

void Mcp::arm_retransmit(std::uint64_t key) {
  auto it = send_records_.find(key);
  assert(it != send_records_.end());
  it->second.timer = nic_.engine().schedule(cfg_.ack_timeout, [this, key] {
    auto rec_it = send_records_.find(key);
    if (rec_it == send_records_.end()) return;  // ACKed while timer fired
    // GM recovery is go-back-N per channel: the receiver accepts nothing
    // past a sequence gap, so resending records one-per-timer can never
    // resynchronize — every later packet only lands via its own timeout,
    // the expected pointer trails the transmit frontier forever, and one
    // loss pins the channel in a two-transmissions-per-packet regime
    // (a livelock once offered load exceeds half the pool's service
    // rate). Instead, only the destination's *oldest* unACKed record
    // drives recovery, and it resends every unACKed record for that
    // destination in sequence order; the burst lands in order, the
    // receiver catches up to the frontier, and the channel returns to
    // the fast path.
    const std::uint64_t lo = key & ~0xFFFFFFFFull;
    if (send_records_.lower_bound(lo)->first != key) {
      arm_retransmit(key);  // not the oldest: its fate rides the oldest's burst
      return;
    }
    const std::uint64_t hi = lo | 0xFFFFFFFFull;
    std::vector<std::uint64_t> burst;
    for (auto it2 = send_records_.lower_bound(lo);
         it2 != send_records_.end() && it2->first <= hi; ++it2) {
      burst.push_back(it2->first);
    }
    for (const std::uint64_t k2 : burst) {
      ++stats_.retransmissions;
      nic_.exec(cfg_.cyc_retransmit, [this, k2] {
        auto rit = send_records_.find(k2);
        if (rit == send_records_.end()) return;  // ACKed after the burst queued
        const SendRecord& rec = rit->second;
        const std::uint64_t flow =
            nic_.inject(net::Packet(nic_.addr(), rec.dst, rec.wire_bytes, rec.body));
        nic_.trace("mcp_retransmit", rec.dst.value(), rec.seqno,
                   static_cast<std::int64_t>(flow));
      });
      nic_.engine().cancel(send_records_[k2].timer);
      arm_retransmit(k2);
    }
  });
}

bool Mcp::on_packet(net::Packet&& p) {
  if (const auto* d = net::body_as<DataPacket>(p)) {
    handle_data(p, *d);
    return true;
  }
  if (const auto* a = net::body_as<AckPacket>(p)) {
    handle_ack(*a, p.src);
    return true;
  }
  return false;
}

void Mcp::handle_data(const net::Packet& p, const DataPacket& d) {
  const int src = p.src.value();
  const DataPacket body = d;  // copy; the packet dies with the caller
  const std::uint32_t cyc = d.nic_sourced ? cfg_.cyc_process_nic_data : cfg_.cyc_process_data;
  nic_.exec(cyc, [this, src, body] {
    std::uint32_t& expected = channels_[src].expected_rx_seq;
    if (body.seqno < expected) {
      // Duplicate of an already-consumed packet: its ACK was lost, so
      // re-ACK or the sender retransmits forever.
      ++stats_.dup_acked;
      send_ack(net::NicAddr(src), body.seqno);
      return;
    }
    if (body.seqno > expected) {
      // GM drops unexpected (out-of-order) packets silently.
      ++stats_.drops_bad_seq;
      nic_.trace("mcp_drop_seq", src, body.seqno);
      return;
    }

    if (body.nic_sourced) {
      ++expected;
      send_ack(net::NicAddr(src), body.seqno);
      if (nic_consumer_) {
        nic_consumer_(RecvEvent{src, body.tag, body.total_bytes, body.inline_value});
      }
      return;
    }

    // Host-bound data needs a preposted receive buffer; claim at the first
    // fragment. Without one the packet is dropped unACKed and the sender's
    // timeout recovers once the host posts a buffer.
    const auto akey = std::make_pair(src, static_cast<std::uint64_t>(body.msg_id));
    if (body.offset == 0) {
      if (recv_tokens_ == 0) {
        ++stats_.drops_no_token;
        nic_.trace("mcp_drop_no_token", src, static_cast<std::int64_t>(body.msg_id));
        return;
      }
      --recv_tokens_;
      assemblies_[akey] = Assembly{0, body.total_bytes};
    }
    ++expected;
    send_ack(net::NicAddr(src), body.seqno);

    auto fin = [this, akey, body] {
      Assembly& as = assemblies_[akey];
      as.received += body.payload_bytes;
      if (as.received >= as.total) {
        assemblies_.erase(akey);
        const RecvEvent ev{akey.first, body.tag, body.total_bytes, body.inline_value};
        nic_.exec(cfg_.cyc_post_recv_event, [this, ev] {
          // The receive event record DMAs into the host event queue.
          nic_.pci().dma(16, [this, ev] {
            if (host_receiver_) host_receiver_(ev);
          });
        });
      }
    };
    if (body.payload_bytes > 0) {
      nic_.pci().dma(body.payload_bytes, std::move(fin));  // RDMA into host buffer
    } else {
      fin();
    }
  });
}

void Mcp::send_ack(net::NicAddr to, std::uint32_t seqno) {
  // ACKs use the per-peer static packet: no pool claim, minimal cost.
  nic_.exec(cfg_.cyc_make_ack, [this, to, seqno] {
    nic_.inject(net::Packet(nic_.addr(), to, ack_wire_bytes(cfg_.header_bytes),
                            AckPacket{seqno}));
    ++stats_.acks_sent;
  });
}

void Mcp::handle_ack(const AckPacket& a, net::NicAddr from) {
  const std::uint64_t key = record_key(from, a.seqno);
  nic_.exec(static_cast<std::uint32_t>(cfg_.cyc_process_ack + cfg_.cyc_release_packet),
            [this, key] {
    auto it = send_records_.find(key);
    if (it == send_records_.end()) return;  // stale/duplicate ACK
    nic_.engine().cancel(it->second.timer);
    const int dst = it->second.token_dst;
    const std::uint64_t msg_id = it->second.token_msg_id;
    send_records_.erase(it);

    ++pool_available_;
    if (waiting_for_buffer_) {
      waiting_for_buffer_ = false;
      run_send_engine();
    }
    complete_token_if_done(dst, msg_id);
  });
}

void Mcp::complete_token_if_done(int dst, std::uint64_t msg_id) {
  // The token is either still queued (more fragments to inject) or inflight.
  const auto ikey = std::make_pair(dst, msg_id);
  if (auto it = inflight_tokens_.find(ikey); it != inflight_tokens_.end()) {
    SendToken& tok = it->second;
    assert(tok.frags_unacked > 0);
    if (--tok.frags_unacked == 0) {
      ++stats_.tokens_completed;
      if (!tok.nic_sourced && tok.on_complete) {
        // Send-completion event to the host.
        nic_.exec(cfg_.cyc_post_send_event, [this, cb = std::move(tok.on_complete)]() mutable {
          nic_.pci().dma(16, std::move(cb));
        });
      }
      inflight_tokens_.erase(it);
    }
    return;
  }
  // Still in the destination queue: just account the ACKed fragment.
  auto& q = dest_queues_[dst];
  for (SendToken& tok : q) {
    if (tok.msg_id == msg_id) {
      assert(tok.frags_unacked > 0);
      --tok.frags_unacked;
      return;
    }
  }
  assert(false && "ACK for unknown token");
}

}  // namespace qmb::myri
