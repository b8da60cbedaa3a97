#include "core/collectives.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/cluster.hpp"
#include "core/coll_tag.hpp"
#include "core/group_window.hpp"

namespace qmb::core {

std::int64_t expected_collective_result(coll::OpKind kind, int n) {
  switch (kind) {
    case coll::OpKind::kBarrier:
      return 0;
    case coll::OpKind::kBcast:
      return 1;  // root is rank 0, which enters 0 + 1
    case coll::OpKind::kAllreduce: {
      const std::int64_t m = n;
      return m * (m + 1) / 2;
    }
    case coll::OpKind::kAllgather:
    case coll::OpKind::kAlltoall: {
      std::int64_t acc = 0;
      for (int r = 0; r < n; ++r) acc |= (r + 1);
      return acc;
    }
  }
  return 0;
}

Collective::SplitState& Collective::split_state(int rank) {
  if (rank < 0 || rank >= size()) {
    throw std::logic_error("split-phase rank " + std::to_string(rank) +
                           " out of range for a " + std::to_string(size()) +
                           "-rank collective");
  }
  if (split_.size() != static_cast<std::size_t>(size())) {
    split_.resize(static_cast<std::size_t>(size()));
  }
  return split_[static_cast<std::size_t>(rank)];
}

void Collective::start(int rank, std::int64_t value) {
  SplitState& st = split_state(rank);
  if (st.phase != Phase::kIdle) {
    throw std::logic_error("rank " + std::to_string(rank) +
                           " started the collective twice without waiting");
  }
  st.phase = Phase::kNotified;
  enter(rank, value, [this, rank](std::int64_t result) {
    SplitState& s = split_state(rank);
    if (s.phase == Phase::kWaiting) {
      // Host got there first and parked; release it and re-arm.
      DoneFn done = std::move(s.waiter);
      s.waiter = nullptr;
      s.phase = Phase::kIdle;
      done(result);
    } else {
      s.result = result;
      s.phase = Phase::kReady;
    }
  });
}

void Collective::wait(int rank, DoneFn done) {
  SplitState& st = split_state(rank);
  switch (st.phase) {
    case Phase::kIdle:
      throw std::logic_error("rank " + std::to_string(rank) +
                             " waited on the collective without a start");
    case Phase::kWaiting:
      throw std::logic_error("rank " + std::to_string(rank) +
                             " waited on the collective twice");
    case Phase::kReady:
      // Protocol already finished under the compute phase: complete now.
      st.phase = Phase::kIdle;
      done(st.result);
      return;
    case Phase::kNotified:
      st.phase = Phase::kWaiting;
      st.waiter = std::move(done);
      return;
  }
}

namespace {

// What the shared executors need from one substrate: the node-side API a
// rank's host-level executor talks to (GmPort, ElanNode, IbNode), how it
// sends one message and what arming one operation costs the host; and, for
// the NIC engines, the node's group engine, the doorbell that hands an
// operation to the NIC and what noticing its completion costs the host.
template <typename Cluster>
struct SubstrateHooks;

template <>
struct SubstrateHooks<MyriCluster> {
  using Host = myri::GmPort;
  using Node = myri::MyriNode;
  static constexpr std::string_view kHostName = "myri-host-";
  static constexpr std::string_view kNicName = "myri-nic-";
  static constexpr std::string_view kNicBarrierName = "myri-nic-coll-";

  static Host& host(MyriCluster& c, int node) { return c.node(node).port(); }
  // A full GM send: descriptor post, doorbell, MCP path with host DMA.
  static void send(Host& h, int dst_node, std::uint32_t bytes, std::uint32_t tag,
                   std::int64_t value) {
    h.send(dst_node, bytes, tag, {}, value);
  }
  static sim::SimDuration setup_cost(Host& h) { return h.host_config().barrier_logic; }
  // GM receives consume preposted buffer tokens.
  static void provide_receives(Host& h, int messages) { h.provide_receive_buffers(messages); }

  static auto& groups(Node& n) { return n.coll().groups(); }
  // A barrier group runs with the cluster's ablation features.
  static void arm(MyriCluster& c, int node, coll::GroupDesc desc) {
    myri::GroupDesc d{std::move(desc), {}};
    if (d.op_kind == coll::OpKind::kBarrier) d.features = c.features();
    groups(c.node(node)).create_group(std::move(d));
  }
  // GM's doorbell: the host posts a descriptor, then the PIO write crosses
  // the bus.
  template <typename Fn>
  static void doorbell(Node& n, Fn&& at_nic) {
    n.host_cpu().exec(n.port().host_config().send_post,
                      [&n, at_nic = std::forward<Fn>(at_nic)]() mutable {
                        n.pci().pio_write(std::move(at_nic));
                      });
  }
  // Completion is a word in host memory: cheaper to notice than a full
  // receive event.
  static sim::SimDuration detect_cost(Node& n) { return n.port().host_config().barrier_detect; }
};

// The prior work's direct scheme: GM's host side over the node's
// DirectEngine.
struct DirectHooks : SubstrateHooks<MyriCluster> {
  static auto& groups(Node& n) { return n.direct().groups(); }
  static void arm(MyriCluster& c, int node, coll::GroupDesc desc) {
    groups(c.node(node)).create_group(std::move(desc));
  }
};

template <>
struct SubstrateHooks<ElanCluster> {
  using Host = elan::ElanNode;
  using Node = elan::ElanNode;
  static constexpr std::string_view kHostName = "elan-host-";
  static constexpr std::string_view kNicName = "elan-nic-";
  static constexpr std::string_view kNicBarrierName = "elan-nic-";

  static Host& host(ElanCluster& c, int node) { return c.node(node); }
  // A tagged put whose remote event the receiving host polls.
  static void send(Host& h, int dst_node, std::uint32_t bytes, std::uint32_t tag,
                   std::int64_t value) {
    h.put(dst_node, bytes, tag, value);
  }
  static sim::SimDuration setup_cost(Host& h) { return h.config().host_event_setup; }
  static void provide_receives(Host&, int) {}

  static auto& groups(Node& n) { return n.nic().groups(); }
  static void arm(ElanCluster& c, int node, coll::GroupDesc desc) {
    groups(c.node(node)).create_group(std::move(desc));
  }
  // The chain's trigger is one user-level doorbell; the host then polls the
  // final local event's word.
  template <typename Fn>
  static void doorbell(Node& n, Fn&& at_nic) {
    n.host_cpu().exec(n.config().host_doorbell, std::forward<Fn>(at_nic));
  }
  static sim::SimDuration detect_cost(Node& n) { return n.config().host_detect; }
};

template <>
struct SubstrateHooks<IbCluster> {
  using Host = ib::IbNode;
  using Node = ib::IbNode;
  static constexpr std::string_view kHostName = "ib-host-";
  static constexpr std::string_view kNicName = "ib-nic-";
  static constexpr std::string_view kNicBarrierName = "ib-nic-";

  static Host& host(IbCluster& c, int node) { return c.node(node); }
  // A tagged write-with-immediate: WQE build + doorbell, CQ polling.
  static void send(Host& h, int dst_node, std::uint32_t bytes, std::uint32_t tag,
                   std::int64_t value) {
    h.post(dst_node, bytes, tag, value);
  }
  static sim::SimDuration setup_cost(Host& h) { return h.config().host_setup; }
  static void provide_receives(Host&, int) {}

  static auto& groups(Node& n) { return n.hca().groups(); }
  static void arm(IbCluster& c, int node, coll::GroupDesc desc) {
    groups(c.node(node)).create_group(std::move(desc));
  }
  // One doorbell MMIO in; the result comes back as a CQE the host polls.
  template <typename Fn>
  static void doorbell(Node& n, Fn&& at_nic) {
    n.host_cpu().exec(n.config().host_doorbell, std::forward<Fn>(at_nic));
  }
  static sim::SimDuration detect_cost(Node& n) { return n.config().host_cq_poll; }
};

/// "<substrate>-<engine>-<kind>", or the schedule in place of the kind for
/// a barrier.
template <typename Cluster>
std::string engine_name(const coll::CollSpec& spec) {
  using Hooks = SubstrateHooks<Cluster>;
  const bool barrier = spec.op == coll::OpKind::kBarrier;
  std::string name(spec.engine == coll::Engine::kHost ? Hooks::kHostName
                   : barrier                          ? Hooks::kNicBarrierName
                                                      : Hooks::kNicName);
  name += barrier ? coll::to_string(spec.algorithm) : coll::to_string(spec.op);
  return name;
}

/// A NIC-resident engine: one doorbell in, one completion word out, all
/// combining done by the NICs' group engines. `Hooks` picks the substrate
/// and, on Myrinet, the engine (collective protocol or direct scheme).
template <typename Cluster, typename Hooks = SubstrateHooks<Cluster>>
class NicCollective final : public Collective {
 public:
  /// `group_id` must not be registered on the cluster yet.
  NicCollective(Cluster& cluster, const coll::CollSpec& spec, std::string name,
                std::uint32_t group_id)
      : cluster_(cluster),
        kind_(spec.op),
        rank_to_node_(resolve_placement(spec.rank_to_node, cluster.size())),
        group_id_(group_id),
        name_(std::move(name)) {
    const int n = size();
    // One schedule for the whole group: every member's descriptor shares it.
    const coll::SharedSchedule schedule = std::make_shared<const coll::GroupSchedule>(
        coll::make_collective_schedule(spec.op, n, spec.root, spec.algorithm, spec.radix));
    const coll::Placement placement = coll::make_placement(rank_to_node_);
    for (int r = 0; r < n; ++r) {
      Hooks::arm(cluster_, rank_to_node_[static_cast<std::size_t>(r)],
                 {.group_id = group_id_,
                  .my_rank = r,
                  .rank_to_node = placement,
                  .schedule = schedule,
                  .op_kind = spec.op,
                  .reduce_op = spec.reduce,
                  .payload_bytes = spec.payload_bytes});
    }
  }

  void enter(int rank, std::int64_t value, DoneFn done) override {
    Node& nd = cluster_.node(rank_to_node_.at(static_cast<std::size_t>(rank)));
    Hooks::doorbell(nd, [this, &nd, value, done = std::move(done)]() mutable {
      Hooks::groups(nd).collective_enter(
          group_id_, value, [&nd, done = std::move(done)](std::int64_t result) mutable {
            nd.host_cpu().exec(Hooks::detect_cost(nd), coll::Completion{std::move(done), result});
          });
    });
  }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int size() const override { return static_cast<int>(rank_to_node_.size()); }
  [[nodiscard]] coll::OpKind kind() const override { return kind_; }

 private:
  using Node = typename Hooks::Node;

  Cluster& cluster_;
  coll::OpKind kind_;
  std::vector<int> rank_to_node_;
  std::uint32_t group_id_;
  std::string name_;
};

/// The host-level executor: every schedule edge pays the substrate's full
/// point-to-point path and host processing — the baseline the NIC engines
/// are measured against.
template <typename Cluster>
class HostCollective final : public Collective {
 public:
  HostCollective(Cluster& cluster, const coll::CollSpec& spec, std::string name)
      : kind_(spec.op),
        payload_bytes_(spec.payload_bytes),
        rank_to_node_(resolve_placement(spec.rank_to_node, cluster.size())),
        group_id_(cluster.next_group_id() & BarrierTag::kGroupMask),
        schedule_(coll::make_collective_schedule(spec.op, size(), spec.root, spec.algorithm,
                                           spec.radix)),
        name_(std::move(name)) {
    const int n = size();
    node_to_rank_.assign(static_cast<std::size_t>(cluster.size()), -1);
    for (int r = 0; r < n; ++r) {
      node_to_rank_[static_cast<std::size_t>(rank_to_node_[static_cast<std::size_t>(r)])] = r;
    }
    ranks_.resize(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      RankCtx& ctx = ranks_[static_cast<std::size_t>(r)];
      ctx.host = &Hooks::host(cluster, rank_to_node_[static_cast<std::size_t>(r)]);
      ctx.waits_per_op = schedule_.ranks[static_cast<std::size_t>(r)].total_waits();
      // Head start of one full operation window: peers may run one
      // operation ahead, and their early messages consume receives meant
      // for the current one. Without this slack a lost message can starve:
      // its retransmissions find no buffer, the operation never completes,
      // and no new buffers are ever provided.
      Hooks::provide_receives(*ctx.host, 2 * ctx.waits_per_op + 4);
      ctx.window = std::make_unique<Window>(
          schedule_.ranks[static_cast<std::size_t>(r)], spec.op, spec.reduce,
          Window::Hooks{
              .send =
                  [this, r](Window::Slot& op, const coll::Edge& e) {
                    const auto bytes =
                        payload_bytes_ * static_cast<std::uint32_t>(
                                             coll::edge_payload_words(kind_, e.tag, op.acc));
                    Hooks::send(*ranks_[static_cast<std::size_t>(r)].host,
                                rank_to_node_[static_cast<std::size_t>(e.peer)], bytes,
                                BarrierTag::encode(group_id_, op.seq, e.tag), op.acc);
                  },
              .complete =
                  [](Window::Slot& op) {
                    if (auto done = std::exchange(op.done, nullptr)) done(op.acc);
                  },
          });
      ctx.host->inbox().add_collective_handler(group_id_, [this, r](const auto& msg) {
        Window& w = *ranks_[static_cast<std::size_t>(r)].window;
        const int src_rank = node_to_rank_.at(static_cast<std::size_t>(msg.src_node));
        assert(src_rank >= 0);
        const std::uint32_t seq =
            BarrierTag::widen_seq(BarrierTag::seq_low(msg.tag), w.next_seq());
        w.on_arrival(seq, src_rank, BarrierTag::edge_tag(msg.tag), msg.value);
      });
    }
  }

  HostCollective(const HostCollective&) = delete;
  HostCollective& operator=(const HostCollective&) = delete;
  ~HostCollective() override {
    for (RankCtx& ctx : ranks_) ctx.host->inbox().remove_collective_handler(group_id_);
  }

  void enter(int rank, std::int64_t value, DoneFn done) override {
    RankCtx& ctx = ranks_.at(static_cast<std::size_t>(rank));
    // Replenish receives for this operation's expected messages, then pay
    // the host-side per-operation bookkeeping before the first send.
    Hooks::provide_receives(*ctx.host, ctx.waits_per_op);
    ctx.host->host_cpu().exec(Hooks::setup_cost(*ctx.host),
                              [&ctx, value, done = std::move(done)]() mutable {
                                ctx.window->start(value, std::move(done));
                              });
  }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int size() const override { return static_cast<int>(rank_to_node_.size()); }
  [[nodiscard]] coll::OpKind kind() const override { return kind_; }

 private:
  using Hooks = SubstrateHooks<Cluster>;
  using Window = coll::GroupWindow<>;

  struct RankCtx {
    typename Hooks::Host* host = nullptr;
    std::unique_ptr<Window> window;
    int waits_per_op = 0;
  };

  coll::OpKind kind_;
  std::uint32_t payload_bytes_;
  std::vector<int> rank_to_node_;
  std::uint32_t group_id_;
  coll::GroupSchedule schedule_;
  std::vector<int> node_to_rank_;
  std::vector<RankCtx> ranks_;
  std::string name_;
};

template <typename Cluster>
std::unique_ptr<Collective> make_engine(Cluster& cluster, const coll::CollSpec& spec) {
  if (spec.engine == coll::Engine::kHost) {
    return std::make_unique<HostCollective<Cluster>>(cluster, spec, engine_name<Cluster>(spec));
  }
  return std::make_unique<NicCollective<Cluster>>(cluster, spec, engine_name<Cluster>(spec),
                                                  cluster.next_group_id());
}

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

std::unique_ptr<Collective> make_collective(MyriCluster& cluster,
                                            const coll::CollSpec& spec) {
  return make_engine(cluster, spec);
}

std::unique_ptr<Collective> make_collective(ElanCluster& cluster,
                                            const coll::CollSpec& spec) {
  return make_engine(cluster, spec);
}

std::unique_ptr<Collective> make_collective(IbCluster& cluster,
                                            const coll::CollSpec& spec) {
  return make_engine(cluster, spec);
}

std::unique_ptr<Collective> make_direct_barrier(MyriCluster& cluster,
                                                const coll::CollSpec& spec) {
  coll::CollSpec barrier = spec;
  barrier.op = coll::OpKind::kBarrier;
  std::string name = "myri-nic-direct-";
  name += coll::to_string(spec.algorithm);
  return std::make_unique<NicCollective<MyriCluster, DirectHooks>>(
      cluster, barrier, std::move(name), cluster.next_group_id() & BarrierTag::kGroupMask);
}

std::unique_ptr<Collective> make_gsync_barrier(ElanCluster& cluster,
                                               std::vector<int> rank_to_node) {
  return std::make_unique<HostCollective<ElanCluster>>(
      cluster,
      coll::CollSpec{.engine = coll::Engine::kHost,
                     .algorithm = coll::Algorithm::kGatherBroadcast,
                     .radix = 4,
                     .rank_to_node = std::move(rank_to_node)},
      "elan-gsync-tree");
}

std::unique_ptr<Collective> make_hgsync_barrier(ElanCluster& cluster) {
  return std::make_unique<ElanHwBarrier>(cluster);
}

RunSeries run_consecutive(sim::Engine& engine, Collective& op, const RunPlan& plan) {
  const int n = op.size();
  const int total = plan.warmup + plan.iters;
  assert(total > 0);
  assert((engine.domains() == 1 || plan.rank_domain != nullptr) &&
         "sharded engines need the rank -> domain map");
  const coll::OpKind kind = op.kind();
  const std::int64_t expected = expected_collective_result(kind, n);

  std::vector<int> rank_iter(static_cast<std::size_t>(n), 0);
  // Completion matrix and error counts, one row per rank: each slot is
  // written only by the owning rank's completion callback — i.e. from its
  // own engine domain — so parallel windows never race on it. The
  // per-iteration completion instant (the time the sequential runner saw
  // the n-th rank finish) is recovered below as the row-wise max.
  std::vector<sim::SimTime> completion(static_cast<std::size_t>(n) *
                                       static_cast<std::size_t>(total));
  std::vector<std::uint64_t> rank_errors(static_cast<std::size_t>(n), 0);
  sim::Rng skew_rng(plan.skew_seed);

  std::function<void(int)> enter_next = [&](int rank) {
    const int it = rank_iter[static_cast<std::size_t>(rank)];
    if (it >= total) return;
    const auto finish = [&, rank, it](std::int64_t result) {
      if (result != expected) ++rank_errors[static_cast<std::size_t>(rank)];
      rank_iter[static_cast<std::size_t>(rank)] = it + 1;
      completion[static_cast<std::size_t>(rank) * static_cast<std::size_t>(total) +
                 static_cast<std::size_t>(it)] = engine.now();
      // Decouple re-entry from the completion callback so trivially-
      // completing operations cannot recurse the host stack.
      engine.schedule(sim::SimDuration::zero(), [&enter_next, rank] { enter_next(rank); });
    };
    const auto enter = [&, rank, finish] {
      const std::int64_t value = checked_contribution(kind, rank);
      if (!plan.overlap) {
        op.enter(rank, value, finish);
        return;
      }
      // Split phase: start the protocol, compute for `overlap`, then wait.
      // The protocol makes progress underneath the simulated computation;
      // the wait only pays whatever latency the compute did not cover.
      op.start(rank, value);
      engine.schedule(*plan.overlap, [&op, rank, finish] { op.wait(rank, finish); });
    };
    if (plan.max_skew > sim::SimDuration::zero()) {
      const auto jitter = sim::SimDuration(static_cast<std::int64_t>(
          skew_rng.next_below(static_cast<std::uint64_t>(plan.max_skew.picos()) + 1)));
      engine.schedule(jitter, enter);
    } else {
      // No extra event: the skew-free path stays bit-identical to specs
      // that predate entry skew.
      enter();
    }
  };
  for (int r = 0; r < n; ++r) {
    if (plan.rank_domain != nullptr) {
      // Direct-call entry inside the rank's domain: everything the protocol
      // schedules from here lands on the right shard, with no extra event
      // (event counts must match the sequential run exactly).
      sim::Engine::DomainScope scope(engine, (*plan.rank_domain)[static_cast<std::size_t>(r)]);
      enter_next(r);
    } else {
      enter_next(r);
    }
  }
  engine.run_until(engine.now() + plan.horizon);

  RunSeries res;
  for (int r = 0; r < n; ++r) {
    if (rank_iter[static_cast<std::size_t>(r)] != total) {
      throw std::runtime_error(std::string(op.name()) +
                               " run did not complete (deadlock in protocol?)");
    }
    res.value_errors += rank_errors[static_cast<std::size_t>(r)];
  }
  res.iterations = static_cast<std::uint64_t>(plan.iters);
  sim::SimTime prev = sim::SimTime::zero();
  for (int i = 0; i < total; ++i) {
    sim::SimTime complete = sim::SimTime::zero();
    for (int r = 0; r < n; ++r) {
      complete = std::max(complete,
                          completion[static_cast<std::size_t>(r) * static_cast<std::size_t>(total) +
                                     static_cast<std::size_t>(i)]);
    }
    if (i >= plan.warmup) res.per_iteration.add(complete - prev);
    prev = complete;
  }
  res.mean = res.per_iteration.mean();
  return res;
}

}  // namespace qmb::core
