// CollSpec — the one value type that describes how to build a collective.
//
// Every knob a collective construction can take (operation kind, engine
// placement, root, reduction, payload size, schedule algorithm, radix,
// rank placement) lives here, so growing a new knob means adding one field
// instead of threading another positional parameter through every factory
// and substrate adapter. `core::make_collective` and the paper baselines
// take one; the substrate registry lowers an ExperimentSpec to it with
// `run::coll_spec_of`. Split-phase overlap is not a construction knob: it
// rides ExperimentSpec::overlap_us into the run driver's RunPlan.
#pragma once

#include <cstdint>
#include <vector>

#include "core/schedule.hpp"

namespace qmb::coll {

/// Which side of the fabric runs the combining protocol: the NIC-resident
/// engine (one doorbell in, one completion out) or the host-level executor
/// (every schedule edge pays the full point-to-point path).
enum class Engine : std::uint8_t { kNic, kHost };

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
  int radix = 0;  // tree degree / dissemination fan-out; 0 = default
  /// Rank -> fabric-node placement; empty means identity over the whole
  /// cluster (resolved at construction).
  std::vector<int> rank_to_node{};
};

}  // namespace qmb::coll
