// Quadrics substrate adapter. The Elan models have no loss-recovery path,
// so the capability flags keep every fault-injection knob off; validate()
// renders that into its usage errors.
#include <utility>

#include "run/substrate_internal.hpp"

namespace qmb::run {
namespace {

class QuadricsCluster final : public SubstrateCluster {
 public:
  QuadricsCluster(sim::Engine& engine, const ExperimentSpec& spec, sim::Tracer* tracer)
      : cluster_(engine, elan::elan3_cluster(), spec.nodes, tracer,
                 pdes_domain_target(spec)) {}

  net::Fabric& fabric() override { return cluster_.fabric(); }

  /// Barriers on --impl host run the gsync tree, the Elanlib host barrier.
  std::unique_ptr<core::Collective> make_collective(const ExperimentSpec& s,
                                                    std::vector<int> placement) override {
    if (s.op == coll::OpKind::kBarrier && s.impl == Impl::kHgsync) {
      return core::make_hgsync_barrier(cluster_);
    }
    if (s.op == coll::OpKind::kBarrier && (s.impl == Impl::kGsync || s.impl == Impl::kHost)) {
      return core::make_gsync_barrier(cluster_, std::move(placement));
    }
    return core::make_collective(cluster_, coll_spec_of(s, std::move(placement)));
  }

  // elan_put fires a remote event and needs no receive-side resources, but
  // the remote host still polls each flood message's event word: every
  // inbox listens, with a handler that drops the message.
  void flood_prepare() override {
    for (int i = 0; i < cluster_.size(); ++i) {
      cluster_.node(i).inbox().set_receive_handler([](const coll::HostMsg&) {});
    }
  }

  void flood_send(int src, int dst, std::uint32_t bytes, std::uint32_t tag) override {
    cluster_.node(src).put(dst, bytes, tag);
  }

 private:
  core::ElanCluster cluster_;
};

class QuadricsSubstrate final : public Substrate {
 public:
  QuadricsSubstrate() {
    caps_.barrier_impls = {Impl::kNic, Impl::kHost, Impl::kGsync, Impl::kHgsync};
    // --impl host maps to the gsync software tree for barriers, so it is
    // fixed-pattern here (unlike Myrinet/IB host barriers).
    caps_.fixed_pattern_barrier_impls = {Impl::kHost, Impl::kGsync, Impl::kHgsync};
    // elan_put carries no host-side payload copy; the wire is the flood
    // path's per-byte bottleneck, with the receive event unit's fixed
    // per-message work on top (which binds for small payloads).
    const elan::Elan3Config cfg;
    caps_.flood_bytes_per_second = cfg.link.bytes_per_second;
    caps_.flood_message_overhead_s =
        static_cast<double>((cfg.event_fire + cfg.host_notify_dma).picos()) * 1e-12;
  }

  Network network() const override { return Network::kQuadrics; }
  std::string_view name() const override { return "quadrics"; }
  const SubstrateCaps& caps() const override { return caps_; }

  std::unique_ptr<SubstrateCluster> build_cluster(sim::Engine& engine,
                                                  const ExperimentSpec& spec,
                                                  sim::Tracer* tracer) const override {
    return std::make_unique<QuadricsCluster>(engine, spec, tracer);
  }

 private:
  SubstrateCaps caps_;
};

}  // namespace

namespace detail {

const Substrate& quadrics_substrate() {
  static const QuadricsSubstrate s;
  return s;
}

}  // namespace detail
}  // namespace qmb::run
