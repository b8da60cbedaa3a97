// Figure 8 reproduction — and extension: scalability of the NIC-based
// barrier measured to 4096 nodes (simulated multi-stage fat-tree clusters)
// vs the analytical model T = T_init + (ceil(log2 N) - 1) * T_trig + T_adj
// fitted on small N. The paper never ran past 64 nodes and extrapolated the
// rest; the conservative-PDES engine lets one run actually simulate the
// tail, so every point here is measured, not predicted.
//
// Points at N >= 512 execute on the parallel engine (engine_threads = 8).
// The engine is bit-deterministic, so those rows are identical to a
// sequential run — the parallel path only changes wall-clock, never the
// table.
//
// Paper anchors: 22.13 us (Quadrics) and 38.94 us (Myrinet LANai-XP) at
// 1024 nodes from the published model constants.
#include <cmath>

#include "bench_util.hpp"
#include "model/analytic.hpp"

namespace {

using namespace qmb;
using run::Impl;
using run::Network;

std::vector<int> fig8_nodes() {
  return {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
}

int iters_for(int n) {
  if (n >= 1024) return 5;
  return n >= 256 ? 20 : (n >= 64 ? 50 : 100);
}

run::ExperimentSpec scaled_spec(Network net, int n) {
  run::ExperimentSpec s = bench::barrier_spec(
      net, n, Impl::kNic, coll::Algorithm::kDissemination, iters_for(n));
  s.engine_threads = n >= 512 ? 8 : 1;
  return s;
}

void print_panel(const char* title, const char* measured_name,
                 const std::vector<double>& measured, const model::BarrierModel& fitted,
                 const model::BarrierModel* paper_model) {
  const auto nodes = fig8_nodes();
  bench::Series meas{measured_name, measured};
  bench::Series model_s{"Model(fit)", {}};
  std::vector<bench::Series> cols;
  for (const int n : nodes) model_s.values_us.push_back(fitted.latency_us(n));
  cols.push_back(meas);
  cols.push_back(model_s);
  if (paper_model != nullptr) {
    bench::Series paper_s{"Model(paper)", {}};
    for (const int n : nodes) paper_s.values_us.push_back(paper_model->latency_us(n));
    cols.push_back(paper_s);
  }
  bench::print_table(title, nodes, cols);
  std::printf("  fitted constants: Tinit+Tadj=%.2f us, Ttrig=%.2f us\n",
              fitted.t_init_us + fitted.t_adj_us, fitted.t_trig_us);
}

/// Residuals of the measured curve against the small-N fit: the quantity
/// the paper could not report past 64 nodes. Printed per point and
/// summarized as the worst |residual| over the measured tail (N >= 128).
void print_residuals(const char* substrate, const std::vector<double>& measured,
                     const model::BarrierModel& fitted) {
  const auto nodes = fig8_nodes();
  std::printf("  %s residuals (measured - model, us | %%):\n", substrate);
  double worst_pct = 0.0;
  int worst_n = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double pred = fitted.latency_us(nodes[i]);
    const double resid = measured[i] - pred;
    const double pct = resid / pred * 100.0;
    std::printf("    n%-5d %+8.2f us  %+6.1f%%\n", nodes[i], resid, pct);
    if (nodes[i] >= 128 && std::fabs(pct) > std::fabs(worst_pct)) {
      worst_pct = pct;
      worst_n = nodes[i];
    }
  }
  std::printf("    worst tail residual (N>=128): %+.1f%% at n%d\n", worst_pct, worst_n);
}

// Fit on N = 4..64: large enough that routes exercise multi-level fat-tree
// paths (the 2-node point sits entirely inside one leaf switch and would
// bias T_trig low), small enough to stay in "measurable cluster" territory
// as the paper's own fit did.
model::BarrierModel fit_from(const std::vector<int>& nodes,
                             const std::vector<double>& measured) {
  std::vector<model::MeasuredPoint> pts;
  for (std::size_t i = 1; i <= 5 && i < nodes.size(); ++i) {
    pts.push_back({nodes[i], measured[i]});
  }
  const auto [intercept, slope] = model::fit_intercept_slope(pts);
  // Split the intercept like the paper: Tinit from the 2-node latency share.
  return model::model_from_fit(intercept, slope, intercept / 2.0);
}

void print_figure() {
  const auto nodes = fig8_nodes();

  // All three node axes go through one parallel sweep: the 4096-node
  // points dominate, and the runner's dynamic work stealing keeps every
  // core busy behind them. Large-N points additionally shard internally
  // on the PDES engine (see scaled_spec).
  const auto series = bench::sweep_series(
      nodes, {
                 {"Quadrics(sim)",
                  [](int n) { return scaled_spec(Network::kQuadrics, n); }},
                 {"Myrinet(sim)",
                  [](int n) { return scaled_spec(Network::kMyrinetXP, n); }},
                 {"IB(sim)",
                  [](int n) { return scaled_spec(Network::kInfiniBand, n); }},
             });
  const auto& elan_meas = series[0].values_us;
  const auto& myri_meas = series[1].values_us;
  const auto& ib_meas = series[2].values_us;

  const model::BarrierModel elan_fit = fit_from(nodes, elan_meas);
  const model::BarrierModel myri_fit = fit_from(nodes, myri_meas);
  const model::BarrierModel ib_fit = fit_from(nodes, ib_meas);
  const model::BarrierModel paper_q = model::paper_quadrics();
  const model::BarrierModel paper_m = model::paper_myrinet_xp();

  print_panel("Figure 8(a): Quadrics/Elan3 NIC barrier scalability (us)",
              "Quadrics(sim)", elan_meas, elan_fit, &paper_q);
  bench::print_anchor("Quadrics model at 1024 nodes (paper: 22.13)", 22.13,
                      elan_fit.latency_us(1024));
  print_residuals("quadrics", elan_meas, elan_fit);

  print_panel("Figure 8(b): Myrinet LANai-XP NIC barrier scalability (us)",
              "Myrinet(sim)", myri_meas, myri_fit, &paper_m);
  bench::print_anchor("Myrinet model at 1024 nodes (paper: 38.94)", 38.94,
                      myri_fit.latency_us(1024));
  print_residuals("myrinet-xp", myri_meas, myri_fit);

  print_panel("Figure 8(c, ours): IB verbs NIC barrier scalability (us)",
              "IB(sim)", ib_meas, ib_fit, nullptr);
  print_residuals("ib", ib_meas, ib_fit);
}

}  // namespace

int main() {
  print_figure();
  return 0;
}
