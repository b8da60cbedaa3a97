#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "run/substrate.hpp"

namespace perfbench {

namespace {

using namespace qmb;
using run::Impl;
using run::Network;

constexpr coll::OpKind kBarrier = coll::OpKind::kBarrier;

/// Appends points whose spec seed is run::seed_for(seed, index). Each
/// point runs a fixed total of operations; the seed draws how many of them
/// are warm-up, in [warmup_min, warmup_min + warmup_span). So a seed moves
/// the timed window, and with it the simulated figures, without changing
/// how much work a pass does.
class PointList {
 public:
  explicit PointList(std::uint64_t seed) : seed_(seed) {}

  run::ExperimentSpec& add(Network net, Impl impl, coll::OpKind op, int nodes, int total,
                           int warmup_min, int warmup_span, std::string tag = {}) {
    run::ExperimentSpec s;
    s.network = net;
    s.impl = impl;
    s.op = op;
    s.nodes = nodes;
    s.seed = run::seed_for(seed_, points_.size());
    s.warmup = warmup_min + static_cast<int>(s.seed % static_cast<std::uint64_t>(warmup_span));
    s.iters = total - s.warmup;
    points_.push_back({{}, std::move(tag), s});
    return points_.back().spec;
  }

  /// Keys are assigned last, after callers finished adjusting specs.
  std::vector<Point> take() {
    for (Point& p : points_) p.key = key_of(p.spec) + p.tag;
    return std::move(points_);
  }

 private:
  std::uint64_t seed_;
  std::vector<Point> points_;
};

// fig-grid: the paper's figure grid on crossbars (Figs. 5-7) plus the
// n = 32 NIC points the model fit needs, and 8-byte allreduce.
std::vector<Point> fig_grid(std::uint64_t seed) {
  constexpr int kTotal = 520, kWarmup = 20, kSpan = 20;
  PointList pl(seed);
  for (const int n : {2, 4, 8, 16}) {
    for (const Network net : {Network::kMyrinetL9, Network::kMyrinetXP}) {
      for (const Impl impl : {Impl::kNic, Impl::kHost, Impl::kDirect}) {
        pl.add(net, impl, kBarrier, n, kTotal, kWarmup, kSpan);
      }
    }
    for (const Impl impl : {Impl::kNic, Impl::kGsync, Impl::kHgsync}) {
      pl.add(Network::kQuadrics, impl, kBarrier, n, kTotal, kWarmup, kSpan);
    }
    for (const Impl impl : {Impl::kNic, Impl::kHost}) {
      pl.add(Network::kInfiniBand, impl, kBarrier, n, kTotal, kWarmup, kSpan);
    }
  }
  for (const Network net : {Network::kQuadrics, Network::kMyrinetXP}) {
    pl.add(net, Impl::kNic, kBarrier, 32, kTotal, kWarmup, kSpan);
  }
  for (const Network net : {Network::kMyrinetXP, Network::kQuadrics, Network::kInfiniBand}) {
    for (const int n : {8, 16}) {
      for (const Impl impl : {Impl::kNic, Impl::kHost}) {
        pl.add(net, impl, coll::OpKind::kAllreduce, n, kTotal, kWarmup, kSpan);
      }
    }
  }
  return pl.take();
}

// scale: NIC barriers on multi-stage fat trees under the PDES engine, plus
// one baseline per substrate at n = 1024 so the speedup is measured at scale.
// The engine is cut into 32 domains that advance in lookahead windows, on
// one thread: on a shared 4-core host, runs with two or four threads varied
// by about a third in wall time from run to run, since every window waits
// for its slowest worker. Results are identical at any thread count.
std::vector<Point> scale(std::uint64_t seed) {
  constexpr int kTotal = 4, kWarmup = 1, kSpan = 2, kDomains = 32;
  PointList pl(seed);
  for (const Network net : {Network::kQuadrics, Network::kMyrinetXP, Network::kInfiniBand}) {
    for (const int n : {1024, 4096}) {
      pl.add(net, Impl::kNic, kBarrier, n, kTotal, kWarmup, kSpan).engine_domains = kDomains;
    }
    // gsync rides the hardware broadcast, which PDES cannot shard.
    const Impl baseline = net == Network::kQuadrics ? Impl::kGsync : Impl::kHost;
    run::ExperimentSpec& s = pl.add(net, baseline, kBarrier, 1024, kTotal, kWarmup, kSpan);
    if (baseline != Impl::kGsync) s.engine_domains = kDomains;
  }
  return pl.take();
}

// tenancy-loss: open-loop multi-tenant groups beside background flood, and
// NIC barriers under wire loss next to their clean twins.
std::vector<Point> tenancy_loss(std::uint64_t seed) {
  constexpr int kGroups = 32, kGroupSize = 8, kNodes = 128;
  // Each group gets one arrival every 400 us. At 200 us the Myrinet host
  // groups fall behind under flood and their backlog keeps growing, so
  // latency would depend on run length rather than on the system.
  constexpr double kPeriodUs = 400.0;
  constexpr std::uint32_t kFloodBytes = 4096;
  constexpr int kFloodStreams = 4;
  // One random membership is one sample of how groups overlap on nodes,
  // and a point's latency follows it closely; eight memberships per
  // configuration average that out. NIC and host points of a membership
  // share it (and the flood pairs), so their ratio compares like with like.
  constexpr int kMemberships = 8;
  PointList pl(seed);
  for (int m = 0; m < kMemberships; ++m) {
    const std::uint64_t membership_seed = run::seed_for(seed ^ 0x4D454D42ULL, m);  // "MEMB"
    for (const Network net : {Network::kMyrinetXP, Network::kInfiniBand}) {
      const run::SubstrateCaps& caps = run::substrate_for(net).caps();
      const double service_us =
          (kFloodBytes / caps.flood_bytes_per_second + caps.flood_message_overhead_s) * 1e6;
      for (const Impl impl : {Impl::kNic, Impl::kHost}) {
        for (const bool flood : {false, true}) {
          load::WorkloadSpec& w =
              pl.add(net, impl, kBarrier, kNodes, 10, 2, 2, "/m" + std::to_string(m)).workload;
          w.groups = kGroups;
          w.group_size = kGroupSize;
          w.membership = load::Membership::kRandom;
          w.seed = membership_seed;
          w.mix = {kBarrier, coll::OpKind::kAllreduce};
          w.arrival = load::Arrival::kFixedRate;
          w.period_us = kPeriodUs;
          if (flood) {
            // Each stream offers half the flood path's admitted rate.
            w.flood_streams = kFloodStreams;
            w.flood_bytes = kFloodBytes;
            w.flood_period_us = service_us / 0.5;
            w.flood_random = true;
          }
        }
      }
    }
  }
  for (const Network net : {Network::kMyrinetXP, Network::kInfiniBand}) {
    for (const double drop : {0.0, 0.01}) {
      pl.add(net, Impl::kNic, kBarrier, 64, 360, 20, 20).drop_prob = drop;
    }
  }
  return pl.take();
}

double mean_us(const std::vector<Point>& points, const std::vector<run::RunResult>& results,
               const std::string& key) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].key == key && results[i].ops_done == results[i].ops_expected &&
        results[i].iterations > 0) {
      return results[i].mean_us();
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

std::vector<Point> make_points(const std::string& workload, std::uint64_t seed) {
  if (workload == "fig-grid") return fig_grid(seed);
  if (workload == "scale") return scale(seed);
  if (workload == "tenancy-loss") return tenancy_loss(seed);
  return {};
}

std::string key_of(const run::ExperimentSpec& s) {
  std::string key = std::string(run::to_string(s.network)) + "/" +
                    std::string(run::to_string(s.impl)) + "/" +
                    (s.workload.enabled() ? std::string("mix")
                                          : std::string(coll::to_string(s.op))) +
                    "/n" + std::to_string(s.nodes);
  if (s.workload.enabled()) key += s.workload.flood_streams > 0 ? "/flood" : "/quiet";
  if (s.drop_prob > 0.0) key += "/loss";
  return key;
}

double Anchor::err_pct() const { return std::fabs(ours - paper) / paper * 100.0; }

model::BarrierModel fit_model(Network network, const std::vector<Point>& points,
                              const std::vector<run::RunResult>& results) {
  std::vector<model::MeasuredPoint> pts;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const run::ExperimentSpec& s = points[i].spec;
    if (s.network == network && s.impl == Impl::kNic && s.op == kBarrier &&
        !s.workload.enabled() && s.drop_prob == 0.0 && s.nodes >= 4 && s.nodes <= 32) {
      pts.push_back({s.nodes, results[i].mean_us()});
    }
  }
  if (pts.size() < 2) return {};
  const auto [intercept, slope] = model::fit_intercept_slope(pts);
  // The paper splits the intercept with T_init taken as half of it.
  return model::model_from_fit(intercept, slope, intercept / 2.0);
}

std::vector<Anchor> anchors(const std::string& workload, const std::vector<Point>& points,
                            const std::vector<run::RunResult>& results) {
  const auto us = [&](const char* key) { return mean_us(points, results, key); };
  if (workload == "fig-grid") {
    const double q_nic = us("quadrics/nic/barrier/n8");
    const double xp_nic = us("myrinet-xp/nic/barrier/n8");
    const double l9_nic = us("myrinet-l9/nic/barrier/n16");
    const double l9_host = us("myrinet-l9/host/barrier/n16");
    return {
        {"quadrics_nic_n8_us", 5.60, q_nic},
        {"quadrics_gsync_factor_n8", 2.48, us("quadrics/gsync/barrier/n8") / q_nic},
        {"quadrics_hgsync_n8_us", 4.20, us("quadrics/hgsync/barrier/n8")},
        {"xp_nic_n8_us", 14.20, xp_nic},
        {"xp_host_factor_n8", 2.64, us("myrinet-xp/host/barrier/n8") / xp_nic},
        {"l9_nic_n16_us", 25.72, l9_nic},
        {"l9_host_factor_n16", 3.38, l9_host / l9_nic},
        {"l9_direct_factor_n16", 1.86, l9_host / us("myrinet-l9/direct/barrier/n16")},
        {"model_quadrics_n1024_us", 22.13,
         fit_model(Network::kQuadrics, points, results).latency_us(1024)},
        {"model_myrinet_n1024_us", 38.94,
         fit_model(Network::kMyrinetXP, points, results).latency_us(1024)},
    };
  }
  // Simulated large clusters against the paper's published model
  // (Sec. 8.3), which it extrapolated from small-N measurements.
  const model::BarrierModel paper_q = model::paper_quadrics();
  const model::BarrierModel paper_m = model::paper_myrinet_xp();
  if (workload == "scale") {
    return {
        {"sim_quadrics_n1024_us", paper_q.latency_us(1024), us("quadrics/nic/barrier/n1024")},
        {"sim_quadrics_n4096_us", paper_q.latency_us(4096), us("quadrics/nic/barrier/n4096")},
        {"sim_myrinet_n1024_us", paper_m.latency_us(1024), us("myrinet-xp/nic/barrier/n1024")},
        {"sim_myrinet_n4096_us", paper_m.latency_us(4096), us("myrinet-xp/nic/barrier/n4096")},
    };
  }
  if (workload == "tenancy-loss") {
    return {{"sim_myrinet_n64_us", paper_m.latency_us(64), us("myrinet-xp/nic/barrier/n64")}};
  }
  return {};
}

}  // namespace perfbench
