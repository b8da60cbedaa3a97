// CollSpec — the one value type that describes how to build a collective.
//
// Every knob a collective construction can take (operation kind, engine
// placement, root, reduction, payload size, schedule algorithm, radix,
// split-phase overlap, rank placement) lives here, so growing a new knob
// means adding one field instead of threading an eighth positional
// parameter through six factories and three substrate adapters. The
// substrate registry's `SubstrateCluster::make_collective(const CollSpec&)`
// is the single construction entry point; the old free-function factories
// survive one release as deprecated shims over this struct.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/schedule.hpp"

namespace qmb::obs {
struct JsonValue;
}  // namespace qmb::obs

namespace qmb::coll {

/// Which side of the fabric runs the combining protocol: the NIC-resident
/// engine (one doorbell in, one completion out) or the host-level executor
/// (every schedule edge pays the full point-to-point path).
enum class Engine : std::uint8_t { kNic, kHost };

[[nodiscard]] std::string_view to_string(Engine e);

/// Parses the names to_string(Engine) emits ("nic", "host").
[[nodiscard]] std::optional<Engine> parse_engine(std::string_view s);

struct CollSpec {
  OpKind op = OpKind::kBarrier;
  Engine engine = Engine::kNic;
  int root = 0;                      // bcast payload source
  ReduceOp reduce = ReduceOp::kSum;  // allreduce combining rule
  std::uint32_t payload_bytes = 8;   // simulated size of one contribution
  /// kDissemination is the "default pattern" sentinel: every op kind maps
  /// it to its canonical schedule (bcast -> binary tree, allreduce ->
  /// recursive doubling, allgather -> dissemination, alltoall -> rotation).
  Algorithm algorithm = Algorithm::kDissemination;
  int radix = 0;          // tree degree / dissemination fan-out; 0 = default
  double overlap_us = -1.0;  // >= 0 documents a split-phase compute window
  /// Rank -> fabric-node placement; empty means identity over the whole
  /// cluster (resolved at construction).
  std::vector<int> rank_to_node{};

  friend bool operator==(const CollSpec&, const CollSpec&) = default;
};

/// Serializes a spec; fields at their default value are omitted, so a
/// default-constructed spec dumps as "{}".
[[nodiscard]] obs::JsonValue to_json(const CollSpec& spec);

/// Inverse of to_json: absent fields take their defaults; unknown enum
/// names throw std::invalid_argument.
[[nodiscard]] CollSpec coll_spec_from_json(const obs::JsonValue& v);

}  // namespace qmb::coll
