// Shared helpers for bench_suite and bench_fig8_scalability.
//
// Methodology follows the paper (Sec. 8): consecutive barriers, warm-up
// iterations discarded, mean of the timed iterations. The simulation is
// deterministic, so fewer timed iterations than the paper's 10,000 yield
// the identical steady-state mean.
//
// All points route through run::SweepRunner: the whole grid executes
// across the machine's cores, and the per-point results are bit-identical
// to a single-threaded run (QMB_SWEEP_THREADS=1 pins that path).
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "run/substrate.hpp"
#include "run/sweep.hpp"

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

struct Series {
  std::string name;
  std::vector<double> values_us;  // parallel to the node-count axis
};

/// One table column: a name plus the spec to run at each node count.
struct SeriesSpec {
  std::string name;
  std::function<run::ExperimentSpec(int nodes)> spec_for;
};

/// Runs the whole (series x nodes) grid through one parallel sweep and
/// returns the per-series latency columns in the given order.
inline std::vector<Series> sweep_series(const std::vector<int>& nodes,
                                        const std::vector<SeriesSpec>& defs) {
  std::vector<run::ExperimentSpec> specs;
  specs.reserve(defs.size() * nodes.size());
  for (const auto& d : defs) {
    for (const int n : nodes) specs.push_back(d.spec_for(n));
  }
  const run::SweepRunner runner;
  const auto results = runner.run(specs);
  std::vector<Series> out;
  out.reserve(defs.size());
  std::size_t k = 0;
  for (const auto& d : defs) {
    Series s{d.name, {}};
    s.values_us.reserve(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) s.values_us.push_back(results[k++].mean_us());
    out.push_back(std::move(s));
  }
  return out;
}

/// Prints the table; additionally writes it as CSV into $QMB_CSV_DIR (one
/// file per table, named after a slug of the title) for plotting.
inline void print_table(const std::string& title, const std::vector<int>& nodes,
                        const std::vector<Series>& series) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-8s", "nodes");
  for (const auto& s : series) std::printf("%16s", s.name.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::printf("%-8d", nodes[i]);
    for (const auto& s : series) std::printf("%16.2f", s.values_us[i]);
    std::printf("\n");
  }

  const char* dir = std::getenv("QMB_CSV_DIR");
  if (dir == nullptr) return;
  std::string slug;
  for (const char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '-') {
      slug += '-';
    }
    if (slug.size() >= 60) break;
  }
  const std::string path = std::string(dir) + "/" + slug + ".csv";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "nodes");
    for (const auto& s : series) std::fprintf(f, ",%s", s.name.c_str());
    std::fprintf(f, "\n");
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      std::fprintf(f, "%d", nodes[i]);
      for (const auto& s : series) std::fprintf(f, ",%.4f", s.values_us[i]);
      std::fprintf(f, "\n");
    }
    std::fclose(f);
  }
}

inline void print_anchor(const char* what, double paper_us, double ours_us) {
  std::printf("  %-52s paper %8.2f us   ours %8.2f us   (%+.0f%%)\n", what, paper_us,
              ours_us, (ours_us - paper_us) / paper_us * 100.0);
}

}  // namespace qmb::bench
