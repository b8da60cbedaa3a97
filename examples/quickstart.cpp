// Quickstart: build a simulated 8-node Myrinet cluster, run the paper's
// NIC-based barrier next to the host-based baseline, and print the message
// schedules of the three classic algorithms (paper Figs. 2-4).
//
//   $ ./quickstart
#include <cstdio>

#include <functional>
#include <memory>

#include "core/cluster.hpp"
#include "core/collectives.hpp"
#include "core/schedule.hpp"

using namespace qmb;

namespace {

void print_schedule(coll::Algorithm alg, int n) {
  const auto g = coll::make_barrier_schedule(alg, n, 2);
  std::printf("\n%s, %d ranks (%d messages, %d steps):\n",
              std::string(coll::to_string(alg)).c_str(), n, g.total_messages(),
              g.max_steps());
  for (int r = 0; r < n; ++r) {
    std::printf("  rank %d:", r);
    const coll::RankSchedule& rs = g.ranks[static_cast<std::size_t>(r)];
    for (std::size_t step = 0; step < rs.step_count(); ++step) {
      std::printf(" [");
      for (const auto& s : rs.sends(step)) std::printf(" ->%d", s.peer);
      for (const auto& w : rs.waits(step)) std::printf(" <-%d", w.peer);
      std::printf(" ]");
    }
    std::printf("\n");
  }
}

using BarrierFactory = std::function<std::unique_ptr<core::Collective>(core::MyriCluster&)>;

double barrier_mean_us(const BarrierFactory& make) {
  sim::Engine engine;
  core::MyriCluster cluster(engine, myri::lanaixp_cluster(), 8);
  auto barrier = make(cluster);
  const auto result = core::run_consecutive(engine, *barrier, {.warmup = 100, .iters = 1000});
  return result.mean.micros();
}

}  // namespace

int main() {
  std::printf("qmbarrier quickstart: 8-node simulated Myrinet cluster (LANai-XP)\n");
  std::printf("================================================================\n");

  // A barrier is the zero-payload collective: the default CollSpec is the
  // paper's NIC-based dissemination barrier.
  const double nic =
      barrier_mean_us([](core::MyriCluster& c) { return core::make_collective(c, {}); });
  const double direct =
      barrier_mean_us([](core::MyriCluster& c) { return core::make_direct_barrier(c, {}); });
  const double host = barrier_mean_us([](core::MyriCluster& c) {
    return core::make_collective(c, {.engine = coll::Engine::kHost});
  });

  std::printf("\nmean latency over 1000 consecutive barriers:\n");
  std::printf("  host-based barrier over GM:            %7.2f us\n", host);
  std::printf("  direct NIC-based barrier (prior work): %7.2f us  (%.2fx)\n", direct,
              host / direct);
  std::printf("  NIC-based collective protocol (paper): %7.2f us  (%.2fx)\n", nic,
              host / nic);

  print_schedule(coll::Algorithm::kGatherBroadcast, 7);
  print_schedule(coll::Algorithm::kPairwiseExchange, 8);
  print_schedule(coll::Algorithm::kDissemination, 8);
  return 0;
}
