#include "net/route_cache.hpp"

#include <algorithm>
#include <cassert>
#include <span>

namespace qmb::net {

RouteView RouteCache::broadcast(NicAddr src, NicAddr dst, int top) {
  assert(src.valid() && dst.valid());
  // NIC indices are < 2^24 in any configuration we instantiate; pack
  // (src, dst, top) into one 64-bit key.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src.value())) << 40) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst.value())) << 16) |
      static_cast<std::uint16_t>(top);
  if (const auto it = slots_.find(key); it != slots_.end()) {
    ++hits_;
    return entries_[it->second];
  }
  ++misses_;
  const Route route = topology_.broadcast_route(src, dst, top);
  LinkId* links = link_arena_.allocate(route.links.size());
  SwitchId* switches = switch_arena_.allocate(route.switches.size());
  std::copy(route.links.begin(), route.links.end(), links);
  std::copy(route.switches.begin(), route.switches.end(), switches);
  slots_.emplace(key, static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back({std::span<const LinkId>(links, route.links.size()),
                      std::span<const SwitchId>(switches, route.switches.size())});
  return entries_.back();
}

}  // namespace qmb::net
