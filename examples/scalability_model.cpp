// The paper's analytical model workflow (Sec. 8.3): measure small clusters,
// fit T = T_init + (ceil(log2 N) - 1) * T_trig + T_adj, extrapolate to 1024
// nodes, and validate the extrapolation against directly simulated large
// clusters.
//
//   $ ./scalability_model
#include <cstdio>
#include <vector>

#include "core/cluster.hpp"
#include "core/collectives.hpp"
#include "model/analytic.hpp"

using namespace qmb;

namespace {

double measure(int nodes, int iters) {
  sim::Engine engine;
  core::MyriCluster cluster(engine, myri::lanaixp_cluster(), nodes);
  auto barrier = core::make_collective(cluster, {});
  return core::run_consecutive(engine, *barrier, {.warmup = 20, .iters = iters}).mean.micros();
}

}  // namespace

int main() {
  std::printf("analytical model workflow (Myrinet LANai-XP, NIC-based barrier)\n");

  std::printf("\nstep 1: measure small clusters\n");
  std::vector<model::MeasuredPoint> points;
  for (int n : {4, 8, 16, 32, 64}) {
    const double us = measure(n, 200);
    points.push_back({n, us});
    std::printf("  %4d nodes: %6.2f us\n", n, us);
  }

  std::printf("\nstep 2: least-squares fit against x = ceil(log2 N) - 1\n");
  const auto [intercept, slope] = model::fit_intercept_slope(points);
  const auto fitted = model::model_from_fit(intercept, slope, intercept / 2);
  std::printf("  T_trig = %.2f us, T_init + T_adj = %.2f us\n", slope, intercept);
  std::printf("  (paper's XP constants: T_trig = 3.50, T_init + T_adj = 7.44)\n");

  std::printf("\nstep 3: extrapolate and validate against direct simulation\n");
  std::printf("  %6s %12s %12s %8s\n", "nodes", "model (us)", "sim (us)", "error");
  for (int n : {128, 256, 512, 1024}) {
    const double predicted = fitted.latency_us(n);
    const double simulated = measure(n, 20);
    std::printf("  %6d %12.2f %12.2f %+7.1f%%\n", n, predicted, simulated,
                (predicted - simulated) / simulated * 100.0);
  }
  std::printf("\n  paper's model value at 1024 nodes: %.2f us; ours: %.2f us\n",
              model::paper_myrinet_xp().latency_us(1024), fitted.latency_us(1024));
  return 0;
}
