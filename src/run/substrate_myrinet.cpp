// Myrinet substrate adapters (LANai XP and LANai 9 presets share one
// cluster type; they register as two named substrates).
#include <algorithm>
#include <utility>

#include "run/substrate_internal.hpp"

namespace qmb::run {
namespace {

class MyrinetCluster final : public SubstrateCluster {
 public:
  MyrinetCluster(sim::Engine& engine, const myri::MyrinetConfig& cfg,
                 const ExperimentSpec& spec, sim::Tracer* tracer)
      : cluster_(engine, cfg, spec.nodes, tracer, spec.features, pdes_domain_target(spec)) {}

  net::Fabric& fabric() override { return cluster_.fabric(); }

  std::unique_ptr<core::Collective> make_collective(const ExperimentSpec& s,
                                                    std::vector<int> placement) override {
    if (s.op == coll::OpKind::kBarrier && s.impl == Impl::kDirect) {
      return core::make_direct_barrier(cluster_, coll_spec_of(s, std::move(placement)));
    }
    return core::make_collective(cluster_, coll_spec_of(s, std::move(placement)));
  }

  void flood_prepare() override {
    if (flood_prepared_) return;
    flood_prepared_ = true;
    // GM receives consume buffer tokens; without provisioning, flood
    // messages would NACK and retransmit forever. Seed a deep pool per node
    // and replenish one token per delivered message so the supply never
    // runs dry however long the run is.
    for (int i = 0; i < cluster_.size(); ++i) {
      myri::GmPort* port = &cluster_.node(i).port();
      port->provide_receive_buffers(1024);
      port->inbox().set_receive_handler(
          [port](const myri::RecvEvent&) { port->provide_receive_buffers(1); });
    }
  }

  void flood_send(int src, int dst, std::uint32_t bytes, std::uint32_t tag) override {
    cluster_.node(src).port().send(dst, bytes, tag);
  }

 private:
  core::MyriCluster cluster_;
  bool flood_prepared_ = false;
};

class MyrinetSubstrate final : public Substrate {
 public:
  MyrinetSubstrate(Network network, std::string_view name) : network_(network), name_(name) {
    caps_.loss_recovery = true;
    caps_.ablations = true;
    caps_.barrier_impls = {Impl::kNic, Impl::kHost, Impl::kDirect};
    // The flood's tightest server is the *sender's* MCP: each host-sourced
    // message serializes LANai firmware work (send-event translation, token
    // schedule, packet claim, header build, ACK bookkeeping) with the
    // doorbell PIO and the payload SDMA across the host PCI bus — and every
    // same-destination message queues FIFO behind it, so an offered rate
    // above this service rate diverges that queue and starves any
    // collective sharing the destination. The receive side (payload +
    // event-record DMAs on the destination bus) is strictly cheaper per
    // message, so admission keys off the sender. Both PCI generations are
    // slower than the 2 GB/s wire, so the per-byte rate is the PCI rate.
    const myri::MyrinetConfig cfg =
        network == Network::kMyrinetL9 ? myri::lanai9_cluster() : myri::lanaixp_cluster();
    const myri::LanaiConfig& ln = cfg.lanai;
    caps_.flood_bytes_per_second =
        std::min(cfg.link.bytes_per_second, cfg.pci.bytes_per_second);
    caps_.flood_message_overhead_s =
        static_cast<double>(ln.cycles(ln.cyc_process_send_event + ln.cyc_token_schedule +
                                      ln.cyc_claim_packet + ln.cyc_build_header +
                                      ln.cyc_process_ack + ln.cyc_release_packet)
                                .picos()) *
            1e-12 +
        static_cast<double>((cfg.pci.pio_write + cfg.pci.dma_overhead).picos()) * 1e-12;
  }

  Network network() const override { return network_; }
  std::string_view name() const override { return name_; }
  const SubstrateCaps& caps() const override { return caps_; }

  std::unique_ptr<SubstrateCluster> build_cluster(sim::Engine& engine,
                                                  const ExperimentSpec& spec,
                                                  sim::Tracer* tracer) const override {
    const auto cfg = network_ == Network::kMyrinetL9 ? myri::lanai9_cluster()
                                                     : myri::lanaixp_cluster();
    return std::make_unique<MyrinetCluster>(engine, cfg, spec, tracer);
  }

 private:
  Network network_;
  std::string_view name_;
  SubstrateCaps caps_;
};

}  // namespace

namespace detail {

const Substrate& myrinet_xp_substrate() {
  static const MyrinetSubstrate s(Network::kMyrinetXP, "myrinet-xp");
  return s;
}

const Substrate& myrinet_l9_substrate() {
  static const MyrinetSubstrate s(Network::kMyrinetL9, "myrinet-l9");
  return s;
}

}  // namespace detail
}  // namespace qmb::run
