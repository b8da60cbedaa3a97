// A tour of the Quadrics/Elan3 substrate (paper Secs. 4.1 and 7):
//   1. tagged RDMA puts with remote events (the Elanlib primitive),
//   2. the chained-RDMA NIC barrier — host involvement is one doorbell in
//      and one event word out,
//   3. elan_gsync's host-level tree vs elan_hgsync's hardware test-and-set,
//   4. what happens to hgsync when one process straggles.
//
//   $ ./quadrics_tour
#include <cstdio>
#include <functional>
#include <memory>

#include "core/cluster.hpp"
#include "core/collectives.hpp"

using namespace qmb;

namespace {

void tour_put() {
  sim::Engine engine;
  core::ElanCluster cluster(engine, elan::elan3_cluster(), 4);
  std::printf("1. tagged put: node 0 -> node 3 ... ");
  cluster.node(3).inbox().set_receive_handler([&](const coll::HostMsg& m) {
    std::printf("arrived from node %d, tag %u, at %.2f us\n", m.src_node, m.tag,
                engine.now().micros());
  });
  cluster.node(0).put(3, 8, 42);
  engine.run();
}

void tour_barriers() {
  std::printf("\n2./3. the three Quadrics barriers at 8 nodes:\n");
  struct Flavour {
    const char* label;
    std::function<std::unique_ptr<core::Collective>(core::ElanCluster&)> make;
    bool nic;
  };
  const Flavour flavours[] = {
      {"chained-RDMA NIC barrier",
       [](core::ElanCluster& c) { return core::make_collective(c, {}); }, true},
      {"elan_gsync host tree", [](core::ElanCluster& c) { return core::make_gsync_barrier(c); },
       false},
      {"elan_hgsync hardware", [](core::ElanCluster& c) { return core::make_hgsync_barrier(c); },
       false},
  };
  for (const Flavour& f : flavours) {
    sim::Engine engine;
    core::ElanCluster cluster(engine, elan::elan3_cluster(), 8);
    auto barrier = f.make(cluster);
    const auto r = core::run_consecutive(engine, *barrier, {.warmup = 100, .iters = 1000});
    std::printf("   %-28s %6.2f us", f.label, r.mean.micros());
    if (f.nic) {
      std::printf("   (%llu RDMAs issued on node 0, 0 host events until completion)",
                  static_cast<unsigned long long>(cluster.node(0).nic().stats().rdma_issued.value()));
    }
    std::printf("\n");
  }
}

void tour_straggler() {
  std::printf("\n4. hgsync with a straggler (enters 20 us late):\n");
  sim::Engine engine;
  core::ElanCluster cluster(engine, elan::elan3_cluster(), 8);
  auto barrier = core::make_hgsync_barrier(cluster);
  for (int r = 0; r < 8; ++r) {
    engine.schedule(r == 5 ? sim::microseconds(20) : sim::SimDuration::zero(),
                    [&, r] {
                      barrier->enter(r, 0, [&, r](std::int64_t) {
                        if (r == 0) {
                          std::printf("   completed at %.2f us\n", engine.now().micros());
                        }
                      });
                    });
  }
  engine.run();
  std::printf("   probes sent: %llu, failed (retried): %llu\n",
              static_cast<unsigned long long>(cluster.hw_barrier().probes_sent()),
              static_cast<unsigned long long>(cluster.hw_barrier().failed_probes()));
  std::printf("   -> the hardware barrier needs synchronized processes (paper Sec. 8.2);\n"
              "      the NIC-based barrier has no such requirement.\n");
}

}  // namespace

int main() {
  std::printf("Quadrics/Elan3 tour\n===================\n");
  tour_put();
  tour_barriers();
  tour_straggler();
  return 0;
}
