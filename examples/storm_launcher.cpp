// STORM-lite job launcher (paper Sec. 9): how fast can a resource manager
// launch a gang job across the cluster when its broadcast/gather run over
// the NIC collective protocol vs host-based messaging?
//
// The node-count axis executes through run::SweepRunner's ordered parallel
// map — each point builds its own engine and cluster, so all points run
// concurrently and print in axis order.
//
//   $ ./storm_launcher [--max-nodes N] [--threads T] [--fault SPEC]...
//
// --fault uses the shared qmbsim/qmbfuzz grammar (see tools/cli.hpp) and
// installs the rules into every cluster fabric, so the launcher doubles as
// a chaos demo: management collectives must ride out the injected faults
// on the protocol's recovery machinery.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli.hpp"
#include "obs/metrics.hpp"
#include "run/sweep.hpp"
#include "storm/storm.hpp"

using namespace qmb;

namespace {

struct Options {
  int max_nodes = 64;
  unsigned threads = 0;
  std::vector<net::FaultSpec> faults;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [--max-nodes N] [--threads T] [--fault SPEC]...\n"
      "  --fault SPEC   fault rule in the shared grammar, e.g. drop:p=0.01,seed=7\n"
      "                 (repeatable; installed into every simulated fabric)\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--max-nodes") {
      o.max_nodes = std::atoi(cli::require_value(argc, argv, i, "--max-nodes"));
    } else if (a == "--threads") {
      o.threads = static_cast<unsigned>(
          std::atoi(cli::require_value(argc, argv, i, "--threads")));
    } else if (a == "--fault") {
      net::FaultSpec f;
      if (const std::string err =
              cli::parse_fault(cli::require_value(argc, argv, i, "--fault"), f);
          !err.empty()) {
        std::fprintf(stderr, "--fault: %s\n", err.c_str());
        usage(argv[0]);
      }
      o.faults.push_back(f);
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
    } else if (i == 1 && a[0] != '-') {
      o.max_nodes = std::atoi(a.c_str());  // legacy positional [nodes]
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      usage(argv[0]);
    }
  }
  if (o.max_nodes < 4) {
    std::fprintf(stderr, "--max-nodes must be >= 4\n");
    std::exit(2);
  }
  return o;
}

struct Numbers {
  double launch_us = 0;
  double total_us = 0;
};

Numbers run_backend(storm::Backend backend, int nodes,
                    const std::vector<net::FaultSpec>& faults) {
  sim::Engine engine;
  core::MyriCluster cluster(engine, myri::lanaixp_cluster(), nodes);
  cluster.fabric().faults().install_plan(faults);
  storm::ResourceManager rm(cluster, backend);
  storm::JobSpec spec;
  spec.job_id = 1;
  spec.work_per_node = sim::microseconds(500);
  spec.imbalance = 0.1;
  Numbers out;
  rm.submit(spec, [&](const storm::JobResult& r) {
    out.launch_us = r.launch_latency.micros();
    out.total_us = r.total_runtime.micros();
  });
  engine.run();
  return out;
}

struct Row {
  Numbers host;
  Numbers nic;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  const int max_nodes = opts.max_nodes;
  std::printf("STORM-lite gang launch (500 us job, 10%% imbalance)\n");
  std::printf("%8s %22s %22s %10s\n", "nodes", "host launch (us)", "NIC launch (us)",
              "speedup");

  std::vector<int> node_counts;
  for (int n = 4; n <= max_nodes; n *= 2) node_counts.push_back(n);

  const run::SweepRunner runner(opts.threads);
  const auto rows = runner.map<Row>(node_counts.size(), [&](std::size_t i) {
    return Row{run_backend(storm::Backend::kHostBased, node_counts[i], opts.faults),
               run_backend(storm::Backend::kNicOffloaded, node_counts[i], opts.faults)};
  });

  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("%8d %22.2f %22.2f %9.2fx\n", node_counts[i], rows[i].host.launch_us,
                rows[i].nic.launch_us, rows[i].host.launch_us / rows[i].nic.launch_us);
  }
  std::printf("\nManagement operations are collectives (STORM's thesis); offloading\n"
              "them to the NIC collective protocol accelerates the whole manager.\n");

  // End-to-end observability demo: run the full management repertoire on
  // one cluster — two launches, a global sync, a clean heartbeat, then a
  // heartbeat with a failed daemon — and read it all back from the
  // engine's MetricRegistry as storm.* counters.
  {
    sim::Engine engine;
    core::MyriCluster cluster(engine, myri::lanaixp_cluster(), 8);
    cluster.fabric().faults().install_plan(opts.faults);
    storm::ResourceManager rm(cluster, storm::Backend::kNicOffloaded);
    storm::JobSpec spec;
    spec.job_id = 1;
    spec.work_per_node = sim::microseconds(100);
    rm.submit(spec, [](const storm::JobResult&) {});
    spec.job_id = 2;
    rm.submit(spec, [&](const storm::JobResult&) {
      rm.global_sync([&] {
        rm.heartbeat([&](bool all_healthy) {
          std::printf("\nheartbeat 1: %s\n", all_healthy ? "all healthy" : "MISSED");
          rm.set_node_healthy(2, false);
          rm.heartbeat([](bool healthy_again) {
            std::printf("heartbeat 2 (node 2 daemon down): %s\n",
                        healthy_again ? "all healthy" : "MISSED");
          });
        });
      });
    });
    engine.run();

    std::printf("\nstorm.* metric snapshot:\n");
    for (const obs::MetricValue& m : engine.metrics().snapshot()) {
      const bool storm_metric = m.name.rfind("storm.", 0) == 0;
      const bool fault_metric =
          !opts.faults.empty() && m.name.rfind("fault.", 0) == 0;
      if (!storm_metric && !fault_metric) continue;
      std::printf("  %-28s %lld\n", m.name.c_str(),
                  static_cast<long long>(m.value));
    }
  }
  return 0;
}
