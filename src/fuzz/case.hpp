// Schedule-space fuzz cases: one seed deterministically derives one
// ExperimentSpec — network, implementation, op kind, node count, ablation
// features, entry skew, random placement, and a fault plan — so the whole
// fuzzer is a pure function of its base seed. The derivation lives behind
// derive_case(); the JSON round-trip (spec_to_json / spec_from_json) is
// what repro artifacts and `qmbfuzz --replay` speak.
//
// Seeds that matter are 64-bit and JSON numbers are doubles, so every
// std::uint64_t serializes as a decimal *string* — replays must be
// bit-exact above 2^53 too.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "run/experiment.hpp"

namespace qmb::fuzz {

/// Knobs bounding the random case space. The defaults keep single cases
/// fast (small clusters, few iterations, tight watchdog) so a fuzz run is
/// throughput-bound on cases, not stuck simulating one giant one.
struct FuzzOptions {
  int max_nodes = 12;          // derived specs use 2..max_nodes
  int max_iters = 10;          // derived specs use 1..max_iters timed iters
  std::int64_t horizon_ms = 10'000;  // simulated-time watchdog per case
  /// Plants the deliberate skip-retransmission bug (CollFeatures::
  /// debug_skip_retransmit) into every derived NIC-engine case on a
  /// loss-capable substrate (Myrinet and IB). Lossy cases then hang at the
  /// horizon and the invariants must catch them — the fuzzer's own
  /// end-to-end self-check.
  bool inject_bug = false;
  /// PDES worker threads for every derived case (default 1 = sequential).
  /// The conservative engine is bit-deterministic, so verdicts, repro
  /// artifacts, and the campaign digest are invariant under this knob —
  /// cases the engine cannot shard (faults, skew, workloads) fall back to
  /// the sequential engine automatically.
  int engine_threads = 1;
};

/// Derives the complete experiment (including its fault plan) for one fuzz
/// seed. Pure function: equal (seed, opts) always yield equal specs, on any
/// thread. Quadrics cases get skew/placement chaos only — the hardware-
/// reliable models reject fault rules, exactly as validate() documents.
[[nodiscard]] run::ExperimentSpec derive_case(std::uint64_t seed,
                                              const FuzzOptions& opts = {});

/// Serializes every replay-relevant spec field (fault plan and ablation
/// features included) as a single-line JSON object.
[[nodiscard]] std::string spec_to_json(const run::ExperimentSpec& spec);

/// Parses spec_to_json()'s format back. Unknown fields are ignored and
/// missing ones keep their defaults (forward compatible); malformed JSON or
/// values of the wrong shape throw std::invalid_argument.
[[nodiscard]] run::ExperimentSpec spec_from_json(std::string_view json);

}  // namespace qmb::fuzz
