#include "quadrics/elanlib.hpp"

#include <stdexcept>
#include <utility>

#include "core/coll_tag.hpp"

namespace qmb::elan {

ElanNode::ElanNode(sim::Engine& engine, net::Fabric& fabric, const Elan3Config& config,
                   int index, sim::Tracer* tracer)
    : index_(index),
      cfg_(config),
      host_cpu_(engine),
      nic_(engine, fabric, config, index, tracer) {}

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

void ElanNode::set_receive_handler(ReceiveHandler fn) {
  app_handler_ = std::move(fn);
  install_dispatcher();
}

void ElanNode::add_collective_handler(std::uint32_t group, ReceiveHandler fn) {
  group_handlers_.emplace(group & core::BarrierTag::kGroupMask, std::move(fn));
  install_dispatcher();
}

void ElanNode::remove_collective_handler(std::uint32_t group) {
  group_handlers_.erase(group & core::BarrierTag::kGroupMask);
}

void ElanNode::install_dispatcher() {
  if (dispatcher_installed_) return;
  dispatcher_installed_ = true;
  // One host_detect poll per delivered message, however many handlers are
  // registered — the host wakes once and routes the message by its tag.
  nic_.set_host_msg_handler([this](const ElanRdma& r) {
    host_cpu_.exec(cfg_.host_detect, [this, src = static_cast<int>(r.src_rank),
                                      tag = r.tag, value = r.value] {
      if (core::BarrierTag::is_barrier(tag)) {
        if (const auto* handler = group_handlers_.find(core::BarrierTag::group(tag))) {
          (*handler)(src, tag, value);
        }
        return;
      }
      if (app_handler_) app_handler_(src, tag, value);
    });
  });
}

void ElanNode::collective_enter(std::uint32_t group, std::int64_t value,
                                std::function<void(std::int64_t)> done) {
  host_cpu_.exec(cfg_.host_doorbell, [this, group, value, done = std::move(done)]() mutable {
    nic_.groups().collective_enter(group, value,
                                   [this, done = std::move(done)](std::int64_t result) mutable {
                                     host_cpu_.exec(cfg_.host_detect,
                                                    coll::Completion{std::move(done), result});
                                   });
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
