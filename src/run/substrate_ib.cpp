// InfiniBand-style RC verbs substrate adapter: the RC transport recovers
// from loss, duplication and corruption, so the full fault-injection
// surface is enabled; the Myrinet-specific ablation switches are not.
#include <utility>

#include "run/substrate_internal.hpp"

namespace qmb::run {
namespace {

class IbSubstrateCluster final : public SubstrateCluster {
 public:
  IbSubstrateCluster(sim::Engine& engine, const ExperimentSpec& spec, sim::Tracer* tracer)
      : cluster_(engine, ib::ib_cluster(), spec.nodes, tracer,
                 spec.features.debug_skip_retransmit, pdes_domain_target(spec)) {}

  net::Fabric& fabric() override { return cluster_.fabric(); }

  std::unique_ptr<core::Collective> make_collective(const ExperimentSpec& s,
                                                    std::vector<int> placement) override {
    return core::make_collective(cluster_, coll_spec_of(s, std::move(placement)));
  }

  // RC write-with-immediate needs no receive provisioning, but the remote
  // host still polls each flood message's CQE off its completion queue:
  // every inbox listens, with a handler that drops the message.
  void flood_prepare() override {
    for (int i = 0; i < cluster_.size(); ++i) {
      cluster_.node(i).inbox().set_receive_handler([](const coll::HostMsg&) {});
    }
  }

  // Flood traffic is an ordinary tagged post.
  void flood_send(int src, int dst, std::uint32_t bytes, std::uint32_t tag) override {
    cluster_.node(src).post(dst, bytes, tag);
  }

 private:
  core::IbCluster cluster_;
};

class IbSubstrate final : public Substrate {
 public:
  IbSubstrate() {
    caps_.loss_recovery = true;
    // Both IB executors are schedule-driven. The central-counter barrier
    // of verbs MPI libraries is `gb --radix N-1`: a star of tagged RDMA
    // writes into rank 0 (N-1 up-edges, N-1 release edges), the same
    // write-with-immediate building block as every other schedule; no
    // remote atomic verb is modelled.
    caps_.barrier_impls = {Impl::kNic, Impl::kHost};
    // RC writes land without a host-side copy; the wire binds the flood
    // per byte, plus the responder HCA's PSN check and CQE DMA per message.
    const ib::IbConfig cfg;
    caps_.flood_bytes_per_second = cfg.link.bytes_per_second;
    caps_.flood_message_overhead_s =
        static_cast<double>((cfg.rx_process + cfg.cq_dma).picos()) * 1e-12;
  }

  Network network() const override { return Network::kInfiniBand; }
  std::string_view name() const override { return "ib"; }
  const SubstrateCaps& caps() const override { return caps_; }

  std::unique_ptr<SubstrateCluster> build_cluster(sim::Engine& engine,
                                                  const ExperimentSpec& spec,
                                                  sim::Tracer* tracer) const override {
    return std::make_unique<IbSubstrateCluster>(engine, spec, tracer);
  }

 private:
  SubstrateCaps caps_;
};

}  // namespace

namespace detail {

const Substrate& ib_substrate() {
  static const IbSubstrate s;
  return s;
}

}  // namespace detail
}  // namespace qmb::run
