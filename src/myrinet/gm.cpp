#include "myrinet/gm.hpp"

#include <stdexcept>
#include <utility>

namespace qmb::myri {

GmPort::GmPort(Nic& nic, Mcp& mcp, sim::Resource& host_cpu, const HostConfig& host)
    : nic_(nic),
      mcp_(mcp),
      host_cpu_(host_cpu),
      host_(host),
      inbox_(host_cpu, host.recv_detect,
             [&mcp](coll::HostInbox<RecvEvent>::Handler receive) {
               mcp.set_host_receiver(std::move(receive));
             }) {}

void GmPort::send(int dst_node, std::uint32_t bytes, std::uint32_t tag,
                  sim::EventCallback on_complete, std::int64_t inline_value) {
  // Host builds the send descriptor, then the doorbell crosses the bus.
  host_cpu_.exec(host_.send_post, [this, dst_node, bytes, tag, inline_value,
                                   cb = std::move(on_complete)]() mutable {
    nic_.pci().pio_write([this, dst_node, bytes, tag, inline_value,
                          cb = std::move(cb)]() mutable {
      sim::EventCallback host_cb;
      if (cb) {
        host_cb = [this, cb = std::move(cb)]() mutable {
          host_cpu_.exec(host_.recv_detect, std::move(cb));
        };
      }
      mcp_.host_send_event(dst_node, bytes, tag, std::move(host_cb), inline_value);
    });
  });
}

MyriNode::MyriNode(sim::Engine& engine, net::Fabric& fabric, const MyrinetConfig& config,
                   int index, sim::Tracer* tracer)
    : index_(index),
      host_cpu_(engine),
      pci_(engine, config.pci),
      nic_(engine, fabric, pci_, config, index, tracer),
      mcp_(nic_),
      coll_(nic_),
      direct_(nic_, mcp_),
      port_(nic_, mcp_, host_cpu_, config.host) {
  nic_.set_packet_handler([this](net::Packet&& p) {
    if (coll_.on_packet(std::move(p))) return;
    if (mcp_.on_packet(std::move(p))) return;
    throw std::logic_error("unhandled packet body type at Myrinet NIC");
  });
}

}  // namespace qmb::myri
