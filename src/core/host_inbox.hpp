// One node's host receive path, written once for GM, Elanlib and verbs: the
// poll that notices a delivered message, then its demultiplexing. A
// BarrierTag-encoded tag goes to its group's handler (the host-level
// collective executors); any other tag goes to the application's handler.
//
// The inbox installs the node's NIC upcall at its first registration, not
// before: until someone listens, a delivered message costs the host no
// poll.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "core/coll_tag.hpp"
#include "core/group_window.hpp"
#include "sim/resource.hpp"

namespace qmb::coll {

/// A delivered host-level message as the Elan and IB upcalls report it.
struct HostMsg {
  int src_node = -1;
  std::uint32_t tag = 0;
  std::int64_t value = 0;  // first payload word
};

/// `Msg` names its sender in `src_node`, and carries `tag` and `value`.
template <typename Msg>
class HostInbox {
 public:
  using Handler = std::function<void(const Msg&)>;

  /// `poll` is what noticing one message costs `host_cpu`; `listen(receive)`
  /// makes `receive` the node's NIC upcall.
  HostInbox(sim::Resource& host_cpu, sim::SimDuration poll,
            std::function<void(Handler receive)> listen)
      : host_cpu_(host_cpu), poll_(poll), listen_(std::move(listen)) {}
  HostInbox(const HostInbox&) = delete;
  HostInbox& operator=(const HostInbox&) = delete;

  /// Installs (or replaces) the application's handler.
  void set_receive_handler(Handler fn) {
    app_ = std::move(fn);
    listen();
  }

  /// Registers the handler for host-level collective messages of `group`;
  /// several groups coexist, told apart by the tag's group field.
  void add_collective_handler(std::uint32_t group, Handler fn) {
    groups_.emplace(group & core::BarrierTag::kGroupMask, std::move(fn));
    listen();
  }
  void remove_collective_handler(std::uint32_t group) {
    groups_.erase(group & core::BarrierTag::kGroupMask);
  }

 private:
  void listen() {
    if (!listen_) return;
    std::exchange(listen_, nullptr)([this](const Msg& m) {
      // One poll per delivered message, however many handlers are
      // registered: the host wakes once and routes the message by its tag.
      host_cpu_.exec(poll_, [this, m] { deliver(m); });
    });
  }

  void deliver(const Msg& m) const {
    if (core::BarrierTag::is_barrier(m.tag)) {
      if (const Handler* handler = groups_.find(core::BarrierTag::group(m.tag))) (*handler)(m);
      return;
    }
    if (app_) app_(m);
  }

  sim::Resource& host_cpu_;
  sim::SimDuration poll_;
  std::function<void(Handler)> listen_;  // empty once listening
  Handler app_;
  GroupTable<Handler> groups_;  // by BarrierTag group field
};

}  // namespace qmb::coll
