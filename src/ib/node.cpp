#include "ib/node.hpp"

#include <utility>

namespace qmb::ib {

IbNode::IbNode(sim::Engine& engine, net::Fabric& fabric, const IbConfig& config,
               int index, sim::Tracer* tracer, bool skip_retransmit)
    : index_(index),
      cfg_(config),
      host_cpu_(engine),
      hca_(engine, fabric, config, index, tracer, skip_retransmit),
      inbox_(host_cpu_, config.host_cq_poll,
             [this](Hca::HostMsgHandler receive) {
               hca_.set_host_msg_handler(std::move(receive));
             }) {}

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

}  // namespace qmb::ib
