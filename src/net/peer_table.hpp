// One node's per-peer protocol state (sequence numbers, queue pairs) in one
// flat table.
//
// A node talks to O(log N) peers under a collective schedule, so a table
// indexed by node id would be O(N) per node and O(N^2) per cluster. Instead
// a peer takes the next slot the first time it is used, and a node-sorted
// index finds the slot again by binary search — no hashing and no per-entry
// heap node on the per-packet path. One table type serves the IB queue
// pairs and the Myrinet MCP's channel sequence numbers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace qmb::net {

template <typename T>
class PeerTable {
 public:
  /// The slot of `node`, taking the next free one (value-initialized) on
  /// first use. Slots never change, so a timer may hold one in place of the
  /// node id and skip the search.
  std::uint32_t slot(int node) {
    const std::size_t i = lower_bound(node);
    if (i < index_.size() && index_[i].node == node) return index_[i].slot;
    const auto fresh = static_cast<std::uint32_t>(entries_.size());
    index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(i), Key{node, fresh});
    entries_.emplace_back();
    return fresh;
  }

  /// The entry in `slot`. Adding a peer may move entries: hold no
  /// reference across one.
  [[nodiscard]] T& at(std::uint32_t slot) { return entries_[slot]; }

  /// The entry for `node`, added on first use.
  T& operator[](int node) { return entries_[slot(node)]; }

 private:
  struct Key {
    int node;
    std::uint32_t slot;
  };

  /// First index whose node is >= `node`; branch-free, as peers arrive in
  /// no order a predictor learns.
  [[nodiscard]] std::size_t lower_bound(int node) const {
    std::size_t n = index_.size();
    if (n == 0) return 0;
    const Key* base = index_.data();
    while (n > 1) {
      const std::size_t half = n / 2;
      base = base[half - 1].node < node ? base + half : base;
      n -= half;
    }
    return static_cast<std::size_t>(base - index_.data()) + (base->node < node ? 1 : 0);
  }

  std::vector<Key> index_;  // ascending node
  std::vector<T> entries_;  // by slot, in first-use order
};

}  // namespace qmb::net
