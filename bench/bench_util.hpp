// bench_suite's point specs.
//
// Methodology follows the paper (Sec. 8): consecutive barriers, warm-up
// iterations discarded, mean of the timed iterations. The simulation is
// deterministic, so fewer timed iterations than the paper's 10,000 yield
// the identical steady-state mean.
#pragma once

#include "run/substrate.hpp"

namespace qmb::bench {

inline constexpr int kTimedIters = 200;
inline constexpr int kWarmupIters = 20;

/// Spec for one consecutive-barrier latency point with the bench defaults.
inline run::ExperimentSpec barrier_spec(run::Network network, int nodes, run::Impl impl,
                                        coll::Algorithm alg, int iters = 0) {
  run::ExperimentSpec s;
  s.network = network;
  s.nodes = nodes;
  s.impl = impl;
  s.algorithm = alg;
  s.iters = iters > 0 ? iters : kTimedIters;
  s.warmup = kWarmupIters;
  return s;
}

/// Spec for one multi-tenant point: `groups` concurrent 4-rank barrier
/// groups with fixed-rate open-loop arrivals, under one background flood
/// stream whose bottleneck utilization is `load_pct` percent (0 =
/// unloaded). The period comes from the substrate's admission model —
/// service = bytes / flood_bytes_per_second + flood_message_overhead_s —
/// so load_pct is true utilization of the flood path's bottleneck (the
/// destination PCI bus on Myrinet, the wire elsewhere), not a raw byte
/// rate. Fixed-rate arrivals only — Poisson gaps route through libm's
/// log1p, whose last-bit rounding can differ across toolchains, and these
/// points' fingerprints gate CI.
inline run::ExperimentSpec tenancy_spec(run::Network network, int nodes, run::Impl impl,
                                        int groups, int load_pct) {
  run::ExperimentSpec s = barrier_spec(network, nodes, impl, coll::Algorithm::kDissemination);
  s.workload.groups = groups;
  s.workload.group_size = 4;
  s.workload.mix = {coll::OpKind::kBarrier};
  s.workload.arrival = load::Arrival::kFixedRate;
  s.workload.period_us = 20.0;
  if (load_pct > 0) {
    const run::SubstrateCaps& caps = run::substrate_for(network).caps();
    const double service_us =
        (4096.0 / caps.flood_bytes_per_second + caps.flood_message_overhead_s) * 1e6;
    s.workload.flood_streams = 1;
    s.workload.flood_bytes = 4096;
    s.workload.flood_period_us = service_us / (static_cast<double>(load_pct) / 100.0);
  }
  return s;
}

}  // namespace qmb::bench
