#include "quadrics/elanlib.hpp"

#include <stdexcept>
#include <utility>

namespace qmb::elan {

ElanNode::ElanNode(sim::Engine& engine, net::Fabric& fabric, const Elan3Config& config,
                   int index, sim::Tracer* tracer)
    : index_(index),
      cfg_(config),
      host_cpu_(engine),
      nic_(engine, fabric, config, index, tracer),
      inbox_(host_cpu_, config.host_detect,
             [this](Nic::HostMsgHandler receive) {
               nic_.set_host_msg_handler(std::move(receive));
             }) {}

void ElanNode::put(int dst_node, std::uint32_t bytes, std::uint32_t tag,
                   std::int64_t value) {
  host_cpu_.exec(cfg_.host_event_setup + cfg_.host_doorbell,
                 [this, dst_node, bytes, tag, value] {
    ElanRdma body;
    body.ev_class = ElanRdma::EventClass::kHostMsg;
    body.tag = tag;
    body.src_rank = static_cast<std::uint32_t>(index_);
    body.value = value;
    // Host-side doorbell; the flow id is assigned (and traced) when the
    // RDMA unit injects the packet in rdma_put.
    nic_.trace("elan_put", dst_node, tag);
    nic_.rdma_put(dst_node, bytes, body);
  });
}

void ElanNode::hgsync_enter(sim::EventCallback done) {
  if (hw_ == nullptr) {
    throw std::logic_error("hgsync_enter without an attached HwBarrierController");
  }
  host_cpu_.exec(cfg_.host_doorbell, [this, done = std::move(done)]() mutable {
    nic_.unit().exec(cfg_.command_process, [this, done = std::move(done)]() mutable {
      hw_->enter(index_, [this, done = std::move(done)]() mutable {
        host_cpu_.exec(cfg_.host_detect, std::move(done));
      });
    });
  });
}

}  // namespace qmb::elan
