// The reusable invariant set every fuzz case is checked against. Each
// checker looks only at a finished RunResult (its counters, metric
// snapshot, and value-check tallies), so the same checks run identically
// on fresh fuzz cases, shrink candidates, corpus replays, and hand-built
// results in unit tests.
//
// The set deliberately contains only *exact* laws of the simulation —
// completion, exact collective values, and counter conservation — never
// statistical expectations, so a violation is always a bug (in the
// protocol or in the model), never noise.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "run/experiment.hpp"

namespace qmb::fuzz {

/// One broken invariant: a stable machine-readable name plus a human
/// explanation with the numbers that disagreed.
struct Violation {
  std::string invariant;
  std::string detail;
};

/// Sum of a named metric across the snapshot in `r.metrics` (counters are
/// already node-aggregated there). 0 when the run never registered it.
[[nodiscard]] std::uint64_t metric_total(const run::RunResult& r, std::string_view name);

/// Runs every applicable invariant; empty result = clean run. Checks:
///  - completion:           ops_done == ops_expected
///  - values-exact:         value_errors == 0
///  - fabric-conservation:  delivered == sent - fault.dropped + fault.duplicated
///  - drop-accounting:      fabric.packets_dropped == fault.dropped
///  - crc-accounting:       nic.crc_dropped == fault.corrupted
///  - ops-counter-algebra:  coll.ops_completed == nodes * (warmup + iters)
///                          (coll.* on Myrinet, ib.* on IB NIC engines)
[[nodiscard]] std::vector<Violation> check_invariants(const run::RunResult& r);

/// "invariant: detail; invariant: detail" for logs and artifacts.
[[nodiscard]] std::string describe(const std::vector<Violation>& violations);

}  // namespace qmb::fuzz
