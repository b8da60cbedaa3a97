#include "net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace qmb::net {

int Topology::domain_cut(int target, std::vector<int>& nic_domain) const {
  (void)target;
  nic_domain.assign(max_nics(), 0);
  return 1;
}

SingleCrossbar::SingleCrossbar(std::size_t ports) : ports_(ports) {
  if (ports < 2) throw std::invalid_argument("crossbar needs >= 2 ports");
}

Route SingleCrossbar::route(NicAddr src, NicAddr dst) const {
  assert(src.valid() && dst.valid());
  assert(src != dst && "no loopback routes");
  assert(src.index() < ports_ && dst.index() < ports_);
  Route r;
  // Link ids: [0, ports) are NIC->switch uplinks, [ports, 2*ports) downlinks.
  r.links = {LinkId(src.value()),
             LinkId(static_cast<std::int32_t>(ports_) + dst.value())};
  r.switches = {SwitchId(0)};
  return r;
}

void SingleCrossbar::compute_route(NicAddr src, NicAddr dst, RouteScratch& out) const {
  assert(src.valid() && dst.valid());
  assert(src != dst && "no loopback routes");
  assert(src.index() < ports_ && dst.index() < ports_);
  out.links[0] = LinkId(src.value());
  out.links[1] = LinkId(static_cast<std::int32_t>(ports_) + dst.value());
  out.switches[0] = SwitchId(0);
  out.num_links = 2;
  out.num_switches = 1;
}

int SingleCrossbar::domain_cut(int target, std::vector<int>& nic_domain) const {
  nic_domain.assign(ports_, 0);
  const std::size_t domains =
      std::clamp<std::size_t>(static_cast<std::size_t>(std::max(target, 1)), 1, ports_);
  const std::size_t block = (ports_ + domains - 1) / domains;
  int count = 0;
  for (std::size_t p = 0; p < ports_; ++p) {
    nic_domain[p] = static_cast<int>(p / block);
    count = std::max(count, nic_domain[p] + 1);
  }
  return count;
}

}  // namespace qmb::net
