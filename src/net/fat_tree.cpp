#include "net/fat_tree.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace qmb::net {

FatTree::FatTree(std::size_t arity, std::size_t levels, std::size_t nics)
    : arity_(arity), levels_(levels), nics_(nics) {
  if (arity < 2) throw std::invalid_argument("fat tree arity must be >= 2");
  if (levels < 1) throw std::invalid_argument("fat tree needs >= 1 level");
  if (2 * levels > RouteScratch::kMaxHops) {
    throw std::invalid_argument("fat tree deeper than RouteScratch holds (" +
                                std::to_string(RouteScratch::kMaxHops / 2) + " levels)");
  }
  pow_.resize(levels_ + 1);
  pow_[0] = 1;
  for (std::size_t e = 1; e <= levels_; ++e) {
    pow_[e] = pow_[e - 1] * arity_;
    if (pow_[e] / arity_ != pow_[e - 1]) throw std::invalid_argument("fat tree too large");
  }
  slots_ = pow_[levels_];
  if (nics_ < 2 || nics_ > slots_) throw std::invalid_argument("nics out of range for tree");
  sw_level_off_.resize(levels_);
  for (std::size_t j = 0; j < levels_; ++j) {
    sw_level_off_[j] = num_switches_;
    num_switches_ += slots_ / pow_[j + 1];
  }
}

FatTree FatTree::fitting(std::size_t arity, std::size_t nics) {
  std::size_t levels = 1;
  std::size_t cap = arity;
  while (cap < nics) {
    cap *= arity;
    ++levels;
  }
  return FatTree(arity, levels, nics);
}

LinkId FatTree::node_up(std::size_t p) const {
  return LinkId(static_cast<std::int32_t>(p));
}

LinkId FatTree::node_down(std::size_t p) const {
  return LinkId(static_cast<std::int32_t>(slots_ + p));
}

LinkId FatTree::up_trunk(std::size_t j, std::size_t group, std::size_t h) const {
  assert(j >= 1 && j < levels_);
  assert(h < pow_[j]);
  const std::size_t base = 2 * slots_ + (j - 1) * 2 * slots_;
  return LinkId(static_cast<std::int32_t>(base + group * pow_[j] + h));
}

LinkId FatTree::down_trunk(std::size_t j, std::size_t group, std::size_t h) const {
  assert(j >= 1 && j < levels_);
  assert(h < pow_[j]);
  const std::size_t base = 2 * slots_ + (j - 1) * 2 * slots_ + slots_;
  return LinkId(static_cast<std::int32_t>(base + group * pow_[j] + h));
}

SwitchId FatTree::sw(std::size_t j, std::size_t group) const {
  assert(j < levels_);
  assert(group < slots_ / pow_[j + 1]);
  return SwitchId(static_cast<std::int32_t>(sw_level_off_[j] + group));
}

std::uint64_t FatTree::mix(std::uint64_t x) {
  // splitmix64 finalizer: deterministic trunk selection.
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

int FatTree::merge_level(NicAddr a, NicAddr b) const {
  assert(a.valid() && b.valid());
  std::size_t x = a.index();
  std::size_t y = b.index();
  int l = 0;
  while (x != y) {
    x /= arity_;
    y /= arity_;
    ++l;
  }
  return l == 0 ? 1 : l;  // a == b still crosses the leaf switch (level 1 span)
}

void FatTree::route_into(std::size_t src, std::size_t dst, std::size_t top,
                         std::uint64_t trunk_hash, RouteScratch& out) const {
  assert(top >= 1 && top <= levels_);
  assert(2 * top <= RouteScratch::kMaxHops && "tree deeper than RouteScratch capacity");
  const std::uint64_t h64 = trunk_hash;
  std::size_t nl = 0;
  std::size_t ns = 0;

  out.links[nl++] = node_up(src);
  out.switches[ns++] = sw(0, src / arity_);
  for (std::size_t j = 1; j < top; ++j) {
    const std::size_t h = static_cast<std::size_t>(h64 % pow_[j]);
    out.links[nl++] = up_trunk(j, src / pow_[j], h);
    out.switches[ns++] = sw(j, src / pow_[j + 1]);
  }
  for (std::size_t j = top - 1; j >= 1; --j) {
    const std::size_t h = static_cast<std::size_t>(h64 % pow_[j]);
    out.links[nl++] = down_trunk(j, dst / pow_[j], h);
    out.switches[ns++] = sw(j - 1, dst / pow_[j]);
  }
  out.links[nl++] = node_down(dst);
  out.num_links = nl;
  out.num_switches = ns;
}

Route FatTree::route_impl(std::size_t src, std::size_t dst, std::size_t top,
                          std::uint64_t trunk_hash) const {
  RouteScratch s;
  route_into(src, dst, top, trunk_hash, s);
  Route r;
  r.links.assign(s.links.begin(), s.links.begin() + static_cast<std::ptrdiff_t>(s.num_links));
  r.switches.assign(s.switches.begin(),
                    s.switches.begin() + static_cast<std::ptrdiff_t>(s.num_switches));
  return r;
}

void FatTree::compute_route(NicAddr src, NicAddr dst, RouteScratch& out) const {
  assert(src != dst && "no loopback routes");
  assert(src.index() < nics_ && dst.index() < nics_);
  const std::uint64_t h =
      mix((static_cast<std::uint64_t>(src.index()) << 32) | dst.index());
  route_into(src.index(), dst.index(),
             static_cast<std::size_t>(merge_level(src, dst)), h, out);
}

int FatTree::domain_cut(int target, std::vector<int>& nic_domain) const {
  nic_domain.assign(nics_, 0);
  if (target <= 1) return 1;
  // Candidate cuts are the tree levels: level l yields ceil(nics / k^l)
  // domains of whole size-k^l subtrees (l = 0 is one node per domain).
  // Pick the level landing closest to target; prefer the finer cut on ties.
  std::size_t best_level = levels_;
  long best_err = -1;
  for (std::size_t l = 0; l <= levels_; ++l) {
    const std::size_t count = (nics_ + pow_[l] - 1) / pow_[l];
    const long err = std::abs(static_cast<long>(count) - static_cast<long>(target));
    if (best_err < 0 || err < best_err || (err == best_err && l < best_level)) {
      best_err = err;
      best_level = l;
    }
  }
  int count = 0;
  for (std::size_t p = 0; p < nics_; ++p) {
    nic_domain[p] = static_cast<int>(p / pow_[best_level]);
    count = std::max(count, nic_domain[p] + 1);
  }
  return count;
}

Route FatTree::route(NicAddr src, NicAddr dst) const {
  assert(src != dst && "no loopback routes");
  assert(src.index() < nics_ && dst.index() < nics_);
  const std::uint64_t h =
      mix((static_cast<std::uint64_t>(src.index()) << 32) | dst.index());
  return route_impl(src.index(), dst.index(),
                    static_cast<std::size_t>(merge_level(src, dst)), h);
}

std::size_t FatTree::via_top(NicAddr src, NicAddr dst, int top_level) const {
  assert(src.index() < nics_ && dst.index() < nics_);
  std::size_t top = static_cast<std::size_t>(top_level);
  if (src != dst) {
    top = std::max(top, static_cast<std::size_t>(merge_level(src, dst)));
  }
  return std::clamp<std::size_t>(top, 1, levels_);
}

Route FatTree::route_via(NicAddr src, NicAddr dst, int top_level) const {
  const std::uint64_t h =
      mix((static_cast<std::uint64_t>(src.index()) << 32) | dst.index());
  return route_impl(src.index(), dst.index(), via_top(src, dst, top_level), h);
}

// Trunk choice from src only: all copies of one broadcast share the up-path
// and the per-subtree down trunks, so the Fabric can reserve each physical
// link once for the whole replication.
Route FatTree::broadcast_route(NicAddr src, NicAddr dst, int top_level) const {
  return route_impl(src.index(), dst.index(), via_top(src, dst, top_level), mix(src.index()));
}

void FatTree::compute_broadcast_route(NicAddr src, NicAddr dst, int top_level,
                                      RouteScratch& out) const {
  route_into(src.index(), dst.index(), via_top(src, dst, top_level), mix(src.index()), out);
}

}  // namespace qmb::net
