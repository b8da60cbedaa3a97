#include "myrinet/gm.hpp"

#include <stdexcept>
#include <utility>

namespace qmb::myri {

GmPort::GmPort(Nic& nic, Mcp& mcp, CollectiveEngine& coll, sim::Resource& host_cpu,
               const HostConfig& host)
    : nic_(nic), mcp_(mcp), coll_(coll), host_cpu_(host_cpu), host_(host) {}

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

void GmPort::install_dispatcher() {
  if (dispatcher_installed_) return;
  dispatcher_installed_ = true;
  mcp_.set_host_receiver([this](const RecvEvent& ev) {
    host_cpu_.exec(host_.recv_detect, [this, ev] {
      if (core::BarrierTag::is_barrier(ev.tag)) {
        if (const auto* handler = group_handlers_.find(core::BarrierTag::group(ev.tag))) {
          (*handler)(ev.src_node, ev.tag, ev.inline_value);
        }
        return;
      }
      if (app_handler_) app_handler_(ev);
    });
  });
}

void GmPort::set_receive_handler(std::function<void(const RecvEvent&)> fn) {
  install_dispatcher();
  app_handler_ = std::move(fn);
}

void GmPort::add_collective_handler(std::uint32_t group, CollectiveHandler fn) {
  install_dispatcher();
  group_handlers_.emplace(group & core::BarrierTag::kGroupMask, std::move(fn));
}

void GmPort::remove_collective_handler(std::uint32_t group) {
  group_handlers_.erase(group & core::BarrierTag::kGroupMask);
}

void GmPort::collective_enter(std::uint32_t group, std::int64_t value,
                              std::function<void(std::int64_t)> done) {
  host_cpu_.exec(host_.send_post, [this, group, value, done = std::move(done)]() mutable {
    nic_.pci().pio_write([this, group, value, done = std::move(done)]() mutable {
      coll_.groups().collective_enter(group, value,
                                      [this, done = std::move(done)](std::int64_t result) mutable {
                                        // Completion is a word in host memory: cheaper
                                        // to notice than a full receive event.
                                        host_cpu_.exec(host_.barrier_detect,
                                                       coll::Completion{std::move(done), result});
                                      });
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
      port_(nic_, mcp_, coll_, host_cpu_, config.host) {
  nic_.set_packet_handler([this](net::Packet&& p) {
    if (coll_.on_packet(std::move(p))) return;
    if (mcp_.on_packet(std::move(p))) return;
    throw std::logic_error("unhandled packet body type at Myrinet NIC");
  });
}

}  // namespace qmb::myri
