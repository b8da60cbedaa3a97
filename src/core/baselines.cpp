// The two paper baselines with no collective twin, as thin Collective
// adapters at OpKind::kBarrier: the Myrinet direct NIC scheme (Figs. 5-6)
// and Elan hgsync (Fig. 7).
#include <cassert>
#include <utility>

#include "core/cluster.hpp"
#include "core/coll_tag.hpp"
#include "core/collectives.hpp"
#include "core/group_window.hpp"

namespace qmb::core {

namespace {

class MyriDirectBarrier final : public Collective {
 public:
  MyriDirectBarrier(MyriCluster& cluster, const coll::CollSpec& spec)
      : rank_to_node_(resolve_placement(spec.rank_to_node, cluster.size())),
        group_id_(cluster.next_group_id() & BarrierTag::kGroupMask),
        schedule_(coll::make_barrier_schedule(spec.algorithm, size(), spec.radix)),
        name_("myri-nic-direct-" + std::string(coll::to_string(spec.algorithm))) {
    const int n = size();
    node_to_rank_.assign(static_cast<std::size_t>(cluster.size()), -1);
    for (int r = 0; r < n; ++r) {
      node_to_rank_[static_cast<std::size_t>(rank_to_node_[static_cast<std::size_t>(r)])] = r;
    }
    ranks_.resize(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      RankCtx& ctx = ranks_[static_cast<std::size_t>(r)];
      ctx.node = &cluster.node(rank_to_node_[static_cast<std::size_t>(r)]);
      myri::MyriNode& nd = *ctx.node;
      ctx.window = std::make_unique<Window>(
          schedule_.ranks[static_cast<std::size_t>(r)], coll::OpKind::kBarrier,
          coll::ReduceOp::kSum,
          Window::Hooks{
              // Trigger the next barrier message through the regular MCP
              // send path: token creation, destination queues, packet
              // claim, send record, ACK — the direct scheme's defining
              // overhead.
              .send =
                  [this, &nd](Window::Slot& op, const coll::Edge& e) {
                    nd.mcp().nic_send(rank_to_node_[static_cast<std::size_t>(e.peer)],
                                      BarrierTag::encode(group_id_, op.seq, e.tag), 0);
                  },
              // Completion: the NIC posts one event record to the host.
              .complete =
                  [&nd](Window::Slot& op) {
                    nd.nic().exec(nd.nic().lanai().cyc_post_recv_event,
                                  [&nd, done = std::exchange(op.done, nullptr)]() mutable {
                                    nd.pci().dma(8, [&nd, done = std::move(done)]() mutable {
                                      nd.host_cpu().exec(
                                          nd.nic().config().host.barrier_detect,
                                          [done = std::move(done)] {
                                            if (done) done(0);
                                          });
                                    });
                                  });
                  },
          });
      // The NIC hands arriving NIC-sourced messages straight to us (after
      // its normal point-to-point receive processing and ACK).
      nd.mcp().set_nic_consumer([this, r](const myri::RecvEvent& ev) {
        if (!BarrierTag::is_barrier(ev.tag)) return;
        if (BarrierTag::group(ev.tag) != group_id_) return;
        Window& w = *ranks_[static_cast<std::size_t>(r)].window;
        const int src_rank = node_to_rank_.at(static_cast<std::size_t>(ev.src_node));
        assert(src_rank >= 0);
        const std::uint32_t seq =
            BarrierTag::widen_seq(BarrierTag::seq_low(ev.tag), w.next_seq());
        w.on_arrival(seq, src_rank, BarrierTag::edge_tag(ev.tag));
      });
    }
  }

  MyriDirectBarrier(const MyriDirectBarrier&) = delete;
  MyriDirectBarrier& operator=(const MyriDirectBarrier&) = delete;

  void enter(int rank, std::int64_t, DoneFn done) override {
    RankCtx& ctx = ranks_.at(static_cast<std::size_t>(rank));
    myri::MyriNode& nd = *ctx.node;
    // Host posts the barrier request; the NIC runs the operation from there.
    nd.host_cpu().exec(nd.nic().config().host.send_post,
                       [&ctx, &nd, done = std::move(done)]() mutable {
      nd.pci().pio_write([&ctx, &nd, done = std::move(done)]() mutable {
        nd.nic().exec(nd.nic().lanai().cyc_process_send_event,
                      [&ctx, done = std::move(done)]() mutable {
                        ctx.window->start(0, std::move(done));
                      });
      });
    });
  }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int size() const override { return static_cast<int>(rank_to_node_.size()); }
  [[nodiscard]] coll::OpKind kind() const override { return coll::OpKind::kBarrier; }

 private:
  using Window = coll::GroupWindow<>;
  struct RankCtx {
    myri::MyriNode* node = nullptr;
    std::unique_ptr<Window> window;
  };

  std::vector<int> rank_to_node_;
  std::uint32_t group_id_;
  coll::GroupSchedule schedule_;
  std::string name_;
  std::vector<int> node_to_rank_;
  std::vector<RankCtx> ranks_;
};

class ElanHwBarrier final : public Collective {
 public:
  explicit ElanHwBarrier(ElanCluster& cluster) : cluster_(cluster) {}

  void enter(int rank, std::int64_t, DoneFn done) override {
    cluster_.node(rank).hgsync_enter([done = std::move(done)] {
      if (done) done(0);
    });
  }
  [[nodiscard]] std::string_view name() const override { return "elan-hgsync"; }
  [[nodiscard]] int size() const override { return cluster_.size(); }
  [[nodiscard]] coll::OpKind kind() const override { return coll::OpKind::kBarrier; }

 private:
  ElanCluster& cluster_;
};

}  // namespace

std::unique_ptr<Collective> make_direct_barrier(MyriCluster& cluster,
                                                const coll::CollSpec& spec) {
  return std::make_unique<MyriDirectBarrier>(cluster, spec);
}

std::unique_ptr<Collective> make_hgsync_barrier(ElanCluster& cluster) {
  return std::make_unique<ElanHwBarrier>(cluster);
}

}  // namespace qmb::core
