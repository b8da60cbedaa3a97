// A fine-grained bulk-synchronous application (the workload class the
// paper's introduction motivates): each rank computes for a short,
// slightly-jittered phase and barriers, many times over. The barrier's
// latency directly bounds the feasible granularity.
//
// Host processes are written as C++20 coroutines driven by the simulation
// engine; the barrier is awaited like any other simulated event.
//
//   $ ./stencil_app [iterations] [compute_us]
#include <coroutine>
#include <cstdio>
#include <cstdlib>

#include "core/cluster.hpp"
#include "core/collectives.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

using namespace qmb;

namespace {

/// Awaitable adapter: co_await enters the barrier and resumes on completion.
struct BarrierAwaiter {
  core::Collective& barrier;
  int rank;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    barrier.enter(rank, 0, [h](std::int64_t) { h.resume(); });
  }
  void await_resume() const {}
};

struct AppResult {
  sim::SimTime finished;
};

sim::Task worker(sim::Engine& engine, core::Collective& barrier, int rank, int iterations,
                 sim::SimDuration compute, sim::Rng rng, AppResult& out) {
  for (int it = 0; it < iterations; ++it) {
    // Compute phase with +-20% load imbalance.
    const double jitter = 0.8 + 0.4 * rng.next_double();
    co_await sim::delay(engine, sim::microseconds(compute.micros() * jitter));
    co_await BarrierAwaiter{barrier, rank};
  }
  out.finished = engine.now();
}

double run_app(coll::Engine side, int nodes, int iterations, sim::SimDuration compute) {
  sim::Engine engine;
  core::MyriCluster cluster(engine, myri::lanaixp_cluster(), nodes);
  auto barrier = core::make_collective(cluster, {.engine = side});
  sim::Rng master(42);
  std::vector<AppResult> results(static_cast<std::size_t>(nodes));
  for (int r = 0; r < nodes; ++r) {
    worker(engine, *barrier, r, iterations, compute, master.split(),
           results[static_cast<std::size_t>(r)]);
  }
  engine.run();
  sim::SimTime end = results[0].finished;
  for (const auto& res : results) end = std::max(end, res.finished);
  return end.micros();
}

}  // namespace

int main(int argc, char** argv) {
  const int iterations = argc > 1 ? std::atoi(argv[1]) : 2000;
  const double compute_us = argc > 2 ? std::atof(argv[2]) : 10.0;
  const int nodes = 8;
  const auto compute = sim::microseconds(compute_us);

  std::printf("stencil app: %d nodes, %d iterations, ~%.1f us compute per step\n", nodes,
              iterations, compute_us);

  const double host = run_app(coll::Engine::kHost, nodes, iterations, compute);
  const double nic = run_app(coll::Engine::kNic, nodes, iterations, compute);

  std::printf("  total runtime, host-based barrier: %10.1f us\n", host);
  std::printf("  total runtime, NIC-based barrier:  %10.1f us\n", nic);
  std::printf("  application speedup from the NIC barrier: %.2fx\n", host / nic);
  std::printf("  (per-iteration synchronization overhead: %.2f vs %.2f us)\n",
              host / iterations - compute_us, nic / iterations - compute_us);
  return 0;
}
