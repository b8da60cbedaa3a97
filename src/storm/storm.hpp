// STORM-lite: a resource-management layer built on the collective
// operations, reproducing the paper's Sec. 9 integration target ("we intend
// to incorporate this NIC-based barrier, along with the NIC-based broadcast,
// into a resource management framework (e.g., STORM)").
//
// STORM's insight (Frachtenberg et al., SC'02) is that cluster management
// operations — job launch, global synchronization, heartbeats — are
// collective communications, so their latency is bounded by the collective
// substrate. This layer implements that pattern over our Collective API:
//
//   * launch_job: broadcast the job descriptor to every node, each node
//     pays a spawn cost and runs the job's work, completion is gathered
//     with an allreduce of exit codes;
//   * global_sync: a plain barrier across the management daemons;
//   * heartbeat: an allreduce(min) of per-node status words.
//
// Pointing the manager at host-based vs NIC-offloaded collectives measures
// exactly the benefit the paper projects for resource management.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "core/collectives.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace qmb::storm {

enum class Backend { kHostBased, kNicOffloaded };

struct JobSpec {
  int job_id = 0;
  sim::SimDuration work_per_node = sim::microseconds(100);
  double imbalance = 0.0;  // +- fraction of work_per_node, per node
  int exit_code = 0;       // exit code every node reports
};

struct JobResult {
  int job_id = 0;
  /// Broadcast completion: every node has the descriptor and has spawned.
  sim::SimDuration launch_latency;
  /// Launch + slowest node's work + completion gather.
  sim::SimDuration total_runtime;
  /// Sum of per-node exit codes (0 = clean run).
  std::int64_t exit_code_sum = 0;
};

class ResourceManager {
 public:
  /// Manages every node of the Myrinet cluster through the chosen
  /// collective backend. Node 0 is the management front end.
  ResourceManager(core::MyriCluster& cluster, Backend backend,
                  std::uint64_t seed = 1);

  /// Queues a job; jobs execute strictly in submission order (one gang at a
  /// time, STORM-style time slice). `done` runs on the front end when the
  /// job's completion gather finishes.
  void submit(JobSpec spec, std::function<void(const JobResult&)> done);

  /// Barrier across all management daemons.
  void global_sync(std::function<void()> done);

  /// Heartbeat sweep: allreduce(min) of per-node status (1 = healthy).
  /// `done(all_healthy)` runs on the front end. Nodes report rather than
  /// time out, so this detects daemon-reported failure, not a dead host.
  void heartbeat(std::function<void(bool all_healthy)> done);

  /// Marks a node's daemon status for subsequent heartbeats.
  void set_node_healthy(int node, bool healthy);

  [[nodiscard]] int nodes() const { return cluster_.size(); }
  [[nodiscard]] Backend backend() const { return backend_; }
  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_completed_; }

 private:
  void start_next_job();

  core::MyriCluster& cluster_;
  Backend backend_;
  sim::Rng rng_;
  std::unique_ptr<core::Collective> launch_bcast_;
  std::unique_ptr<core::Collective> completion_gather_;
  std::unique_ptr<core::Collective> heartbeat_reduce_;
  std::unique_ptr<core::Collective> sync_barrier_;
  std::vector<std::int64_t> node_status_;

  struct PendingJob {
    JobSpec spec;
    std::function<void(const JobResult&)> done;
  };
  std::deque<PendingJob> queue_;
  bool job_running_ = false;
  std::uint64_t jobs_completed_ = 0;
  // Registered in the engine's MetricRegistry under "storm.*" so the
  // integration example reads management-layer activity off the same
  // snapshot as the protocol counters.
  obs::Counter launches_;
  obs::Counter syncs_;
  obs::Counter heartbeats_;
  obs::Counter heartbeats_missed_;
};

}  // namespace qmb::storm
