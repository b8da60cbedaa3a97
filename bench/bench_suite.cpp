// bench_suite — the whole figure set as one machine-readable artifact.
//
// Runs every simulated-time number the reproduction reports (Figs. 5-8,
// the headline table, the Sec. 3/6 ablation, the Sec. 9 collectives, entry
// skew, background contention and the zoo tiers) through run::SweepRunner
// and writes BENCH_suite.json ("qmb-bench-suite/1"): one point per
// experiment with a stable key, latency stats, wire counters, and the
// determinism fingerprint. The full grid also measures Fig. 8 out to 4096
// nodes and writes the paper's model fitted to it as "model" keys. CI
// uploads the files and tools/benchdiff compares them against
// bench/baseline.json and bench/baseline_full.json; a latency regression
// or a fingerprint change shows up as a keyed delta instead of a diff of
// printed tables.
//
//   bench_suite                  # full grid, writes BENCH_suite.json
//   bench_suite --quick          # CI-sized axes (seconds, not minutes)
//   bench_suite --out suite.json --threads 4
//
// The simulation is deterministic, so the latency numbers are exact. The
// simulator's own host time is perfbench's to measure, not this suite's.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "model/analytic.hpp"
#include "obs/json.hpp"
#include "run/sweep.hpp"

namespace {

using namespace qmb;
using run::Impl;
using run::Network;

/// Fig. 8's scalability rows: the NIC dissemination barrier on each
/// substrate, keyed "<row>/nic/barrier/ds/n<N>".
constexpr const char* kFig8Rows[] = {"fig8/quadrics", "fig8/myrinet-xp", "ib-scale/ib"};

/// Fig. 8's tail, N >= kTailNodes, runs kTailIters timed iterations after
/// the usual warm-up: the simulation is deterministic and in steady state
/// by then, and 200 iterations at 4096 nodes would dwarf the rest. The full
/// document's header names both, as tail_nodes and tail_iters.
constexpr int kTailNodes = 1024;
constexpr int kTailIters = 5;

/// Full mode's Fig. 8 axis: N = 2, 4, ..., 4096.
std::vector<int> fig8_axis() {
  std::vector<int> nodes;
  for (int n = 2; n <= 4096; n *= 2) nodes.push_back(n);
  return nodes;
}

struct SuitePoint {
  std::string key;
  run::ExperimentSpec spec;
};

struct SuiteOptions {
  bool quick = false;
  std::string out = "BENCH_suite.json";
  unsigned threads = 0;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [--quick] [--out PATH] [--threads T]\n"
      "  --quick      small node axes and fewer iterations (CI)\n"
      "  --out PATH   output file (default BENCH_suite.json)\n"
      "  --threads T  sweep worker threads (default: all cores)\n",
      argv0);
  std::exit(2);
}

std::string impl_slug(Impl i) { return std::string(run::to_string(i)); }

std::string alg_slug(coll::Algorithm a) {
  return std::string(run::algorithm_cli_name(a));
}

/// "fig5/myrinet-l9/nic/barrier/ds/n8" — stable across runs and releases;
/// benchdiff aligns suites on these keys.
std::string key_for(const char* group, const run::ExperimentSpec& s) {
  std::string k = group;
  k += '/';
  k += std::string(run::to_string(s.network));
  k += '/';
  k += impl_slug(s.impl);
  k += '/';
  k += std::string(run::to_string(s.op));
  k += '/';
  k += alg_slug(s.algorithm);
  k += "/n";
  k += std::to_string(s.nodes);
  return k;
}

/// Appends a point unless the suite already holds its key. The figure
/// tables below reuse axes (full mode's fig5 axis already has n16, its
/// collectives tier n8), and benchdiff rejects a suite with a key twice.
void add_point(std::vector<SuitePoint>& out, std::string key, const run::ExperimentSpec& s) {
  for (const SuitePoint& p : out) {
    if (p.key == key) return;
  }
  out.push_back({std::move(key), s});
}

void add_barrier_grid(std::vector<SuitePoint>& out, const char* group, Network net,
                      const std::vector<Impl>& impls, const std::vector<int>& nodes,
                      coll::Algorithm alg = coll::Algorithm::kDissemination) {
  for (const Impl impl : impls) {
    for (const int n : nodes) {
      const run::ExperimentSpec s = bench::barrier_spec(net, n, impl, alg);
      add_point(out, key_for(group, s), s);
    }
  }
}

std::vector<SuitePoint> build_points(bool quick) {
  std::vector<SuitePoint> pts;
  const std::vector<int> small = quick ? std::vector<int>{2, 8}
                                       : std::vector<int>{2, 4, 8, 16};
  const std::vector<int> large = quick ? std::vector<int>{2, 16, 64} : fig8_axis();

  const auto ds = coll::Algorithm::kDissemination;
  const auto pe = coll::Algorithm::kPairwiseExchange;

  // Fig. 5: LANai 9.1 cluster — NIC vs host vs prior direct scheme.
  add_barrier_grid(pts, "fig5", Network::kMyrinetL9,
                   {Impl::kNic, Impl::kHost, Impl::kDirect}, small);
  // Fig. 6: LANai-XP cluster, same comparison.
  add_barrier_grid(pts, "fig6", Network::kMyrinetXP,
                   {Impl::kNic, Impl::kHost, Impl::kDirect}, small);
  // Fig. 7: Quadrics — chained-RDMA NIC barrier vs elan_gsync vs hgsync.
  add_barrier_grid(pts, "fig7", Network::kQuadrics,
                   {Impl::kNic, Impl::kGsync, Impl::kHgsync}, small);
  // Fig. 8: scalability of the NIC barrier on both networks (the model
  // rows are fitted to these after the sweep; see append_model_rows).
  add_barrier_grid(pts, "fig8", Network::kMyrinetXP, {Impl::kNic}, large);
  add_barrier_grid(pts, "fig8", Network::kQuadrics, {Impl::kNic}, large);

  // The rows EXPERIMENTS.md prints for Figs. 5-7: the paper's DS and PE
  // curves, at the non-power-of-two sizes where PE pays its extra steps.
  const std::vector<int> fig5_rows = {2, 4, 8, 11, 16};
  const std::vector<int> fig67_rows = {2, 4, 6, 8};
  for (const coll::Algorithm alg : {ds, pe}) {
    add_barrier_grid(pts, "fig5", Network::kMyrinetL9, {Impl::kNic, Impl::kHost}, fig5_rows,
                     alg);
    add_barrier_grid(pts, "fig6", Network::kMyrinetXP, {Impl::kNic, Impl::kHost}, fig67_rows,
                     alg);
  }
  add_barrier_grid(pts, "fig7", Network::kQuadrics,
                   {Impl::kNic, Impl::kGsync, Impl::kHgsync}, fig67_rows);
  add_barrier_grid(pts, "fig7", Network::kQuadrics, {Impl::kNic}, fig67_rows, pe);
  // Headline table: the 16-node LANai 9.1 anchors (NIC, host, direct), and
  // the quick grid's n = 4..32 points of the Sec. 8.3 model fit range
  // (n8 is the fig6/fig7 key, n16 the quick fig8 one; the full grid's
  // fig8 axis already holds them all).
  add_barrier_grid(pts, "fig5", Network::kMyrinetL9,
                   {Impl::kNic, Impl::kHost, Impl::kDirect}, {16});
  add_barrier_grid(pts, "fig8", Network::kQuadrics, {Impl::kNic}, {4, 32});
  add_barrier_grid(pts, "fig8", Network::kMyrinetXP, {Impl::kNic}, {4, 32});

  // PDES tier: the same NIC barrier sharded over the conservative
  // parallel engine at 8 worker threads. The gate is the fingerprint —
  // the engine's contract is that these points are bit-identical to their
  // sequential twins, so any determinism break in the window/merge logic
  // shows up here as a fingerprint delta even on a single-core runner.
  {
    const int pdes_n = quick ? 64 : 256;
    for (const Network net :
         {Network::kQuadrics, Network::kMyrinetXP, Network::kInfiniBand}) {
      run::ExperimentSpec s = bench::barrier_spec(
          net, pdes_n, Impl::kNic, coll::Algorithm::kDissemination);
      s.engine_threads = 8;
      pts.push_back({key_for("pdes", s), s});
    }
  }

  // Sec. 9 generalization tier: the NIC collective protocol ported to the
  // IB verbs substrate — RC-transport NIC barrier vs host baseline, plus
  // the NIC barrier's scalability curve on its own key group.
  add_barrier_grid(pts, "ib-barrier", Network::kInfiniBand,
                   {Impl::kNic, Impl::kHost}, small);
  add_barrier_grid(pts, "ib-scale", Network::kInfiniBand, {Impl::kNic}, large);

  // Ablation (Sec. 3/6): each protocol simplification disabled in turn.
  const int abl_nodes = quick ? 8 : 16;
  const auto abl = [&pts, abl_nodes](const char* slug, myri::CollFeatures f) {
    run::ExperimentSpec s = bench::barrier_spec(Network::kMyrinetXP, abl_nodes,
                                                Impl::kNic,
                                                coll::Algorithm::kDissemination);
    s.features = f;
    pts.push_back({std::string("ablation/") + slug + "/n" +
                       std::to_string(abl_nodes),
                   s});
  };
  abl("full", myri::CollFeatures{});
  myri::CollFeatures f{};
  f.dedicated_queue = false;
  abl("no-dedicated-queue", f);
  f = myri::CollFeatures{};
  f.static_packet = false;
  abl("no-static-packet", f);
  f = myri::CollFeatures{};
  f.bitvector_record = false;
  abl("no-bitvector-record", f);
  f = myri::CollFeatures{};
  f.receiver_driven = false;
  abl("no-receiver-driven", f);
  abl("all-disabled", myri::CollFeatures{.dedicated_queue = false,
                                         .static_packet = false,
                                         .receiver_driven = false,
                                         .bitvector_record = false});

  // Multi-tenant tier: four concurrent 4-rank barrier groups with
  // fixed-rate arrivals under background flood at 0/25/50/75% of the
  // substrate's sustainable flood throughput, on the two loss-recovering
  // substrates. The workload fingerprint folds per-group p99s, so
  // cross-group interference shifts gate CI like any latency regression.
  for (const Network net : {Network::kMyrinetXP, Network::kInfiniBand}) {
    for (const int pct : {0, 25, 50, 75}) {
      run::ExperimentSpec s = bench::tenancy_spec(net, 8, Impl::kNic, 4, pct);
      pts.push_back({std::string("tenancy/") + std::string(run::to_string(net)) +
                         "/nic/barrier/g4/load" + std::to_string(pct),
                     s});
    }
  }
  // Its closed-loop twin: each group re-enters as soon as its previous
  // barrier completes (the paper's Sec. 8 methodology), NIC vs host on
  // LANai-XP. The p99 column of the contention table is each key's p99_us.
  for (const Impl impl : {Impl::kNic, Impl::kHost}) {
    for (const int pct : {0, 25, 50, 75}) {
      run::ExperimentSpec s = bench::tenancy_spec(Network::kMyrinetXP, 8, impl, 4, pct);
      s.workload.arrival = load::Arrival::kClosed;
      add_point(pts, "background/myrinet-xp/" + impl_slug(impl) + "/barrier/g4/load" +
                         std::to_string(pct),
                s);
    }
  }

  // Entry skew (Secs. 4.1/8.2): every (re-)entry waits a uniform draw in
  // [0, skew] us. elan_hgsync needs well-synchronized callers: its failed
  // test-and-set probes show in packets_sent, while the NIC barrier sends
  // its schedule's messages at any skew.
  const std::pair<Network, Impl> skewed[] = {{Network::kQuadrics, Impl::kHgsync},
                                             {Network::kQuadrics, Impl::kNic},
                                             {Network::kMyrinetXP, Impl::kNic},
                                             {Network::kMyrinetXP, Impl::kHost}};
  for (const auto& [net, impl] : skewed) {
    for (const int skew_us : {5, 50}) {
      run::ExperimentSpec s = bench::barrier_spec(net, 8, impl, ds);
      s.skew_max_us = static_cast<double>(skew_us);
      add_point(pts, key_for("skew", s) + "/skew" + std::to_string(skew_us), s);
    }
  }

  // Algorithm zoo tier: every barrier algorithm on the schedule-driven
  // NIC executor of each substrate, so the Tinit/Ttrig scaling of the whole
  // zoo is one keyed artifact; on IB also the verbs central-counter star
  // (gb at degree n-1, keyed by its radix). Plus a split-phase overlap
  // sweep: the same dissemination barrier with each rank computing ov
  // microseconds between notify() and wait(), showing how much of the
  // synchronization cost hides behind compute.
  {
    const std::vector<int> algo_nodes = quick ? std::vector<int>{8, 64}
                                              : std::vector<int>{8, 64, 256};
    for (const Network net :
         {Network::kMyrinetXP, Network::kQuadrics, Network::kInfiniBand}) {
      for (const coll::Algorithm alg : run::caps_algorithms(coll::OpKind::kBarrier)) {
        for (const int n : algo_nodes) {
          run::ExperimentSpec s = bench::barrier_spec(net, n, Impl::kNic, alg);
          pts.push_back({key_for("algos", s), s});
        }
      }
      if (net == Network::kInfiniBand) {
        for (const int n : algo_nodes) {
          run::ExperimentSpec s =
              bench::barrier_spec(net, n, Impl::kNic, coll::Algorithm::kGatherBroadcast);
          s.radix = n - 1;
          pts.push_back({key_for("algos", s) + "/r" + std::to_string(s.radix), s});
        }
      }
      for (const int ov : {0, 4, 16}) {
        run::ExperimentSpec s =
            bench::barrier_spec(net, 8, Impl::kNic, coll::Algorithm::kDissemination);
        s.overlap_us = static_cast<double>(ov);
        pts.push_back({key_for("algos", s) + "/ov" + std::to_string(ov), s});
      }
    }
  }

  // Value collectives through the same NIC protocol (paper Sec. 6).
  const int coll_nodes = quick ? 4 : 8;
  for (const coll::OpKind op : {coll::OpKind::kBcast, coll::OpKind::kAllreduce,
                                coll::OpKind::kAllgather}) {
    run::ExperimentSpec s = bench::barrier_spec(Network::kMyrinetXP, coll_nodes,
                                                Impl::kNic,
                                                coll::Algorithm::kDissemination);
    s.op = op;
    pts.push_back({key_for("collectives", s), s});
  }
  // The Sec. 9 table: every value kind on both engines, LANai-XP at 8 and
  // 16 nodes and Quadrics (chained RDMA vs host puts) at 8.
  const std::pair<Network, std::vector<int>> coll_axes[] = {
      {Network::kMyrinetXP, {8, 16}}, {Network::kQuadrics, {8}}};
  for (const auto& [net, nodes] : coll_axes) {
    for (const Impl impl : {Impl::kNic, Impl::kHost}) {
      for (const coll::OpKind op : {coll::OpKind::kBcast, coll::OpKind::kAllreduce,
                                    coll::OpKind::kAllgather, coll::OpKind::kAlltoall}) {
        for (const int n : nodes) {
          run::ExperimentSpec s = bench::barrier_spec(net, n, impl, ds);
          s.op = op;
          add_point(pts, key_for("collectives", s), s);
        }
      }
    }
  }

  // Value-collective algorithm tier: NIC vs host allreduce under every
  // algorithm the capability model admits for the kind, on all three
  // hardware models — the value-op companion to the barrier zoo tier, so
  // "which allreduce schedule wins at which scale" is one keyed artifact.
  for (const Network net :
       {Network::kMyrinetXP, Network::kQuadrics, Network::kInfiniBand}) {
    for (const Impl impl : {Impl::kNic, Impl::kHost}) {
      for (const coll::Algorithm alg : run::caps_algorithms(coll::OpKind::kAllreduce)) {
        for (const int n : {8, 64}) {
          run::ExperimentSpec s = bench::barrier_spec(net, n, impl, alg);
          s.op = coll::OpKind::kAllreduce;
          pts.push_back({key_for("vcoll", s), s});
        }
      }
    }
  }
  return pts;
}

/// Key of row `row`'s point at `n` nodes under `impl_slug` ("nic" or "model").
std::string row_key(const char* row, const char* impl_slug, int n) {
  std::string k = row;
  k += '/';
  k += impl_slug;
  k += "/barrier/ds/n";
  k += std::to_string(n);
  return k;
}

/// Fig. 8's model rows: the paper's T_init + (ceil(log2 N) - 1) T_trig +
/// T_adj fitted by least squares to each scalability row's n4..n64 points
/// (multi-level fat-tree routes, yet clusters the paper could measure),
/// with T_init half the intercept, written for every N on the axis as
/// "<row>/model/barrier/ds/n<N>". A model point holds only its key and
/// mean_us: the fingerprints of the fit's inputs already gate it.
void append_model_rows(obs::JsonValue& points) {
  const auto mean_of = [&points](const std::string& key) {
    for (const obs::JsonValue& p : points.array) {
      if (p.string_or("key", "") == key) return p.number_or("mean_us", 0.0);
    }
    throw std::logic_error("model fit input missing: " + key);
  };
  for (const char* row : kFig8Rows) {
    std::vector<model::MeasuredPoint> fit;
    for (const int n : {4, 8, 16, 32, 64}) fit.push_back({n, mean_of(row_key(row, "nic", n))});
    const auto [intercept, slope] = model::fit_intercept_slope(fit);
    const model::BarrierModel m = model::model_from_fit(intercept, slope, intercept / 2.0);
    for (const int n : fig8_axis()) {
      obs::JsonValue p = obs::JsonValue::make_object();
      p.set("key", obs::JsonValue::of(row_key(row, "model", n)));
      p.set("mean_us", obs::JsonValue::of(m.latency_us(n)));
      points.array.push_back(std::move(p));
    }
  }
}

SuiteOptions parse(int argc, char** argv) {
  SuiteOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      o.quick = true;
    } else if (a == "--out" && i + 1 < argc) {
      o.out = argv[++i];
    } else if (a == "--threads" && i + 1 < argc) {
      const int t = std::atoi(argv[++i]);
      if (t < 1) usage(argv[0]);
      o.threads = static_cast<unsigned>(t);
    } else {
      usage(argv[0]);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const SuiteOptions o = parse(argc, argv);
  auto points = build_points(o.quick);
  const int iters = o.quick ? 50 : bench::kTimedIters;
  std::vector<run::ExperimentSpec> specs;
  specs.reserve(points.size());
  for (auto& p : points) {
    p.spec.iters = p.spec.nodes >= kTailNodes ? kTailIters : iters;
    specs.push_back(p.spec);
  }

  const run::SweepRunner runner(o.threads);
  const auto results = runner.run(specs);

  obs::JsonValue doc = obs::JsonValue::make_object();
  doc.set("schema", obs::JsonValue::of("qmb-bench-suite/1"));
  doc.set("quick", obs::JsonValue::of(o.quick));
  doc.set("iters", obs::JsonValue::of(static_cast<std::int64_t>(iters)));
  doc.set("warmup", obs::JsonValue::of(static_cast<std::int64_t>(bench::kWarmupIters)));
  if (!o.quick) {
    doc.set("tail_nodes", obs::JsonValue::of(static_cast<std::int64_t>(kTailNodes)));
    doc.set("tail_iters", obs::JsonValue::of(static_cast<std::int64_t>(kTailIters)));
  }
  obs::JsonValue arr = obs::JsonValue::make_array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const run::RunResult& r = results[i];
    obs::JsonValue p = obs::JsonValue::make_object();
    p.set("key", obs::JsonValue::of(points[i].key));
    p.set("impl_name", obs::JsonValue::of(r.impl_name));
    p.set("mean_us", obs::JsonValue::of(r.mean_us()));
    p.set("min_us", obs::JsonValue::of(r.min_us()));
    p.set("max_us", obs::JsonValue::of(r.max_us()));
    p.set("p99_us", obs::JsonValue::of(r.p99_us()));
    p.set("packets_sent", obs::JsonValue::of(r.packets_sent));
    p.set("bytes_sent", obs::JsonValue::of(r.bytes_sent));
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(r.fingerprint()));
    p.set("fingerprint", obs::JsonValue::of(fp));
    arr.array.push_back(std::move(p));
  }
  if (!o.quick) append_model_rows(arr);
  const std::size_t written = arr.array.size();
  doc.set("points", std::move(arr));

  const std::string text = doc.dump();
  std::FILE* f = std::fopen(o.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", o.out.c_str());
    return 2;
  }
  std::fputs(text.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("%zu points -> %s (%s, %d timed iters", written, o.out.c_str(),
              o.quick ? "quick" : "full", iters);
  if (!o.quick) std::printf(", %d at N >= %d", kTailIters, kTailNodes);
  std::printf(", %u threads)\n", runner.threads());
  return 0;
}
