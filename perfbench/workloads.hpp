// The benchmark's workloads (sets of simulation points drawn from a seed)
// and the paper anchors each workload's points are compared against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/analytic.hpp"
#include "run/experiment.hpp"

namespace perfbench {

struct Point {
  std::string key;  // key_of(spec) + tag, stable across seeds
  std::string tag;  // tells apart points with equal spec keys, e.g. "/m2"
  qmb::run::ExperimentSpec spec;
};

/// "fig-grid", "scale" and "tenancy-loss"; anything else is empty.
[[nodiscard]] std::vector<Point> make_points(const std::string& workload, std::uint64_t seed);

/// The key a spec is listed under: network/impl/op/nN, op "mix" for
/// multi-tenant points, then "/quiet" or "/flood" (tenancy) and "/loss".
[[nodiscard]] std::string key_of(const qmb::run::ExperimentSpec& spec);

/// One paper number beside ours. Factors are ratios, the rest microseconds.
struct Anchor {
  std::string name;  // printed as anchor.<name>
  double paper = 0.0;
  double ours = 0.0;

  [[nodiscard]] double err_pct() const;
};

/// Anchors computed from the workload's own points (`results` is parallel
/// to `points`); failed points make their anchors NaN.
[[nodiscard]] std::vector<Anchor> anchors(const std::string& workload,
                                          const std::vector<Point>& points,
                                          const std::vector<qmb::run::RunResult>& results);

/// Least-squares T_init/T_trig fit over the NIC barrier points of `network`
/// at n = 4..32 (the paper's Sec. 8.3 method, as bench_headline fits it).
/// All zero when the workload has fewer than two such points.
[[nodiscard]] qmb::model::BarrierModel fit_model(
    qmb::run::Network network, const std::vector<Point>& points,
    const std::vector<qmb::run::RunResult>& results);

}  // namespace perfbench
