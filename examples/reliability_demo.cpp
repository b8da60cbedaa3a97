// Receiver-driven retransmission in action (paper Sec. 6.3).
//
// Myrinet drops packets; the collective protocol sends no ACKs, so a lost
// barrier message is recovered by the *receiver* noticing the gap and
// NACKing the sender. This demo drops one barrier message on the wire,
// prints the resulting protocol timeline from the tracer, and contrasts the
// packet counts with the ACK-per-message ablation.
//
//   $ ./reliability_demo
#include <cstdio>

#include "core/cluster.hpp"
#include "core/collectives.hpp"

using namespace qmb;

namespace {

void run_with_drop(bool receiver_driven) {
  sim::Engine engine;
  sim::Tracer tracer;
  tracer.enable();
  myri::CollFeatures features;
  features.receiver_driven = receiver_driven;
  core::MyriCluster cluster(engine, myri::lanaixp_cluster(), 4, &tracer, features);
  // Lose the very first barrier message from node 0 to node 1.
  cluster.fabric().faults().add_nth_rule(net::NicAddr(0), net::NicAddr(1), 1);

  auto barrier = core::make_collective(cluster, {});
  const auto result = core::run_consecutive(engine, *barrier, {.iters = 3});

  std::printf("\n=== %s, first 0->1 barrier message dropped ===\n",
              receiver_driven ? "receiver-driven NACK (the paper's protocol)"
                              : "ACK per message (ablation)");
  std::printf("3 barriers completed; first iteration stretched to %.1f us by the "
              "recovery, steady state %.2f us\n",
              result.per_iteration.max().micros(), result.per_iteration.min().micros());
  std::printf("wire packets: %llu (dropped: %llu)\n",
              static_cast<unsigned long long>(cluster.fabric().packets_sent()),
              static_cast<unsigned long long>(cluster.fabric().faults().dropped()));

  std::uint64_t nacks = 0, retrans = 0, acks = 0;
  for (int i = 0; i < 4; ++i) {
    nacks += cluster.node(i).coll().stats().nacks_sent.value();
    retrans += cluster.node(i).coll().stats().retransmissions.value();
    acks += cluster.node(i).coll().stats().acks_sent.value();
  }
  std::printf("protocol actions: %llu NACKs, %llu retransmissions, %llu collective ACKs\n",
              static_cast<unsigned long long>(nacks),
              static_cast<unsigned long long>(retrans),
              static_cast<unsigned long long>(acks));

  std::printf("recovery timeline (traced events around the loss):\n");
  int printed = 0;
  for (const auto& rec : tracer.records()) {
    const bool interesting = rec.event == "drop" || rec.event == "coll_nack" ||
                             rec.event == "coll_nack_rx" ||
                             (rec.event == "coll_complete" && printed < 12);
    if (!interesting) continue;
    std::printf("  %10.2f us  node %lld  %-14s a=%lld b=%lld\n", rec.at.micros(),
                static_cast<long long>(rec.node), rec.event.c_str(),
                static_cast<long long>(rec.a), static_cast<long long>(rec.b));
    if (++printed >= 16) break;
  }
}

}  // namespace

int main() {
  std::printf("reliability demo: 4-node Myrinet, deterministic packet loss\n");
  run_with_drop(true);
  run_with_drop(false);
  std::printf("\nThe paper's scheme recovers with one NACK and half the packets of\n"
              "the ACK-based ablation (Sec. 6.3).\n");
  return 0;
}
