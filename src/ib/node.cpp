#include "ib/node.hpp"

#include <utility>

#include "core/coll_tag.hpp"

namespace qmb::ib {

IbNode::IbNode(sim::Engine& engine, net::Fabric& fabric, const IbConfig& config,
               int index, sim::Tracer* tracer, bool skip_retransmit)
    : index_(index),
      cfg_(config),
      host_cpu_(engine),
      hca_(engine, fabric, config, index, tracer, skip_retransmit) {}

void IbNode::post(int dst_node, std::uint32_t bytes, std::uint32_t tag,
                  std::int64_t value) {
  host_cpu_.exec(cfg_.host_wqe_build + cfg_.host_doorbell,
                 [this, dst_node, bytes, tag, value] {
    IbWrite body;
    body.imm_class = IbWrite::ImmClass::kHostMsg;
    body.tag = tag;
    body.src_rank = static_cast<std::uint32_t>(index_);
    body.value = value;
    hca_.trace("ib_post", dst_node, tag);
    hca_.post_write(dst_node, body, bytes);
  });
}

void IbNode::set_receive_handler(ReceiveHandler fn) {
  app_handler_ = std::move(fn);
  install_dispatcher();
}

void IbNode::add_collective_handler(std::uint32_t group, ReceiveHandler fn) {
  group_handlers_.emplace(group & core::BarrierTag::kGroupMask, std::move(fn));
  install_dispatcher();
}

void IbNode::remove_collective_handler(std::uint32_t group) {
  group_handlers_.erase(group & core::BarrierTag::kGroupMask);
}

void IbNode::install_dispatcher() {
  if (dispatcher_installed_) return;
  dispatcher_installed_ = true;
  // One host_cq_poll per consumed CQE, however many handlers are
  // registered — the host wakes once and routes the message by its tag.
  hca_.set_host_msg_handler([this](const IbWrite& w) {
    host_cpu_.exec(cfg_.host_cq_poll, [this, src = static_cast<int>(w.src_rank),
                                       tag = w.tag, value = w.value] {
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

void IbNode::collective_enter(std::uint32_t group, std::int64_t value,
                              std::function<void(std::int64_t)> done) {
  host_cpu_.exec(cfg_.host_doorbell, [this, group, value, done = std::move(done)]() mutable {
    hca_.groups().collective_enter(group, value,
                                   [this, done = std::move(done)](std::int64_t result) mutable {
                                     host_cpu_.exec(cfg_.host_cq_poll,
                                                    coll::Completion{std::move(done), result});
                                   });
  });
}

}  // namespace qmb::ib
