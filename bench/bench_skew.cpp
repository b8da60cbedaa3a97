// Sensitivity to process skew (paper Secs. 4.1 and 8.2): elan_hgsync "re-
// quires that the calling processes are well synchronized ... otherwise it
// falls back"; the NIC-based barrier has no such requirement. This bench
// staggers barrier entries by a controlled skew and reports the extra
// latency the LAST-entering rank observes beyond its entry (i.e. the cost
// that is not just "waiting for the straggler").
#include <benchmark/benchmark.h>

#include <functional>

#include "bench_util.hpp"

namespace {

using namespace qmb;

/// Runs `iters` barriers where rank r enters at r*skew/(n-1); returns the
/// mean completion-after-last-entry in us.
template <typename MakeBarrier>
double skewed_cost_us(MakeBarrier&& make, int nodes, sim::SimDuration skew, int iters) {
  double total = 0;
  for (int it = 0; it < iters; ++it) {
    sim::Engine engine;
    auto [cluster_keepalive, barrier] = make(engine, nodes);
    (void)cluster_keepalive;
    sim::SimTime last_entry, last_done;
    for (int r = 0; r < nodes; ++r) {
      const auto d = sim::SimDuration(skew.picos() * r / (nodes - 1));
      engine.schedule(d, [&, r] {
        last_entry = std::max(last_entry, engine.now());
        barrier->enter(r, 0, [&](std::int64_t) {
          last_done = std::max(last_done, engine.now());
        });
      });
    }
    engine.run();
    total += (last_done - last_entry).micros();
  }
  return total / iters;
}

void print_table() {
  const int nodes = 8;
  std::vector<int> skews_us{0, 1, 2, 5, 10, 20, 50};

  auto elan_nic = [](sim::Engine& e, int n) {
    auto cluster = std::make_unique<core::ElanCluster>(e, elan::elan3_cluster(), n);
    auto barrier = core::make_collective(*cluster, {});
    return std::pair{std::move(cluster), std::move(barrier)};
  };
  auto myri_make = [](coll::Engine side) {
    return [side](sim::Engine& e, int n) {
      auto cluster =
          std::make_unique<core::MyriCluster>(e, myri::lanaixp_cluster(), n);
      auto barrier = core::make_collective(*cluster, {.engine = side});
      return std::pair{std::move(cluster), std::move(barrier)};
    };
  };

  bench::Series hw{"Elan-HW(hgsync)", {}}, enic{"Elan-NIC", {}}, mnic{"Myri-NIC", {}},
      mhost{"Myri-Host", {}};
  bench::Series probes{"probes/barrier", {}}, failed{"failed/barrier", {}};
  for (const int s : skews_us) {
    const auto skew = sim::microseconds(s);
    // hgsync: also count the wasted test-and-set transactions.
    {
      sim::Engine engine;
      core::ElanCluster cluster(engine, elan::elan3_cluster(), nodes);
      auto barrier = core::make_hgsync_barrier(cluster);
      sim::SimTime last_entry, last_done;
      for (int r = 0; r < nodes; ++r) {
        const auto d = sim::SimDuration(skew.picos() * r / (nodes - 1));
        engine.schedule(d, [&, r] {
          last_entry = std::max(last_entry, engine.now());
          barrier->enter(r, 0, [&](std::int64_t) {
            last_done = std::max(last_done, engine.now());
          });
        });
      }
      engine.run();
      hw.values_us.push_back((last_done - last_entry).micros());
      probes.values_us.push_back(static_cast<double>(cluster.hw_barrier().probes_sent()));
      failed.values_us.push_back(static_cast<double>(cluster.hw_barrier().failed_probes()));
    }
    enic.values_us.push_back(skewed_cost_us(elan_nic, nodes, skew, 5));
    mnic.values_us.push_back(skewed_cost_us(myri_make(coll::Engine::kNic), nodes, skew, 5));
    mhost.values_us.push_back(skewed_cost_us(myri_make(coll::Engine::kHost), nodes, skew, 5));
  }
  bench::print_table(
      "Barrier cost beyond the last entry (us) vs entry skew (rows = total skew in "
      "us), 8 nodes",
      skews_us, {hw, enic, mnic, mhost});
  bench::print_table("elan_hgsync network test-and-set transactions per barrier vs skew",
                     skews_us, {probes, failed});
  std::printf(
      "\nUnder skew the hardware barrier burns network test-and-set transactions:\n"
      "every probe issued before the last process arrives fails and retries after\n"
      "a ~2 us backoff, so its completion cost beyond the last entry jitters by up\n"
      "to the backoff interval and the wasted transactions grow with the skew.\n"
      "The NIC-based barrier issues exactly its schedule's messages no matter how\n"
      "skewed the entries are — the paper's Sec. 8.2 point that hgsync's speed\n"
      "'requires that the involving processes be well synchronized'.\n");
}

void BM_SkewedHardwareBarrier(benchmark::State& state) {
  double us = 0;
  for (auto _ : state) {
    sim::Engine e;
    core::ElanCluster c(e, elan::elan3_cluster(), 8);
    auto b = core::make_hgsync_barrier(c);
    us = core::run_consecutive(e, *b, {.warmup = 5, .iters = 20}).mean.micros();
  }
  state.counters["sim_barrier_us"] = us;
}
BENCHMARK(BM_SkewedHardwareBarrier)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
