// Broadcast route memoization for the fabric's hardware-broadcast path.
//
// Unicast routes need no memo: Topology::compute_route fills them O(1) into
// a caller-owned scratch. A hardware broadcast instead asks for one
// (src, dst, top) route per replica, through Topology::broadcast_route,
// which builds a fresh Route (two heap vectors). Topologies are immutable
// after construction, so the Fabric memoizes each broadcast variant the
// first time it is asked for and hands out span-based RouteViews into a
// stable arena from then on: steady-state broadcasts perform no allocation
// and no virtual dispatch.
//
// Storage discipline: link/switch ids live in chunked arenas
// (vector<unique_ptr<T[]>>), so previously handed-out views are never
// invalidated by later inserts. There is no eviction and no invalidation
// hook — the cache's correctness rests on topology immutability, which is
// asserted by the exhaustive equivalence tests in test_route_cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"

namespace qmb::net {

class RouteCache {
 public:
  explicit RouteCache(const Topology& topology) : topology_(topology) {}

  RouteCache(const RouteCache&) = delete;
  RouteCache& operator=(const RouteCache&) = delete;

  /// Memoized Topology::broadcast_route(src, dst, top). The view stays
  /// valid for the cache's lifetime.
  [[nodiscard]] RouteView broadcast(NicAddr src, NicAddr dst, int top);

  /// Host-side instrumentation for tests; never part of simulated state or
  /// fingerprints.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::size_t entries() const { return entries_.size(); }

 private:
  // Chunked append-only arena: grows without relocating prior elements.
  template <class T>
  class Arena {
   public:
    [[nodiscard]] T* allocate(std::size_t count) {
      if (count == 0) return nullptr;
      if (count > kChunk) {  // oversize route gets a dedicated chunk
        chunks_.push_back(std::make_unique<T[]>(count));
        return chunks_.back().get();
      }
      if (chunks_.empty() || used_ + count > kChunk) {
        chunks_.push_back(std::make_unique<T[]>(kChunk));
        used_ = 0;
      }
      T* out = chunks_.back().get() + used_;
      used_ += count;
      return out;
    }

   private:
    static constexpr std::size_t kChunk = 1024;
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::size_t used_ = kChunk;
  };

  const Topology& topology_;
  // Keyed (src, dst, top); the value indexes entries_.
  std::unordered_map<std::uint64_t, std::uint32_t> slots_;
  std::vector<RouteView> entries_;
  Arena<LinkId> link_arena_;
  Arena<SwitchId> switch_arena_;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace qmb::net
