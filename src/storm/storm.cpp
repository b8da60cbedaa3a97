#include "storm/storm.hpp"

#include <cassert>

namespace qmb::storm {

ResourceManager::ResourceManager(core::MyriCluster& cluster, Backend backend,
                                 std::uint64_t seed)
    : cluster_(cluster), backend_(backend), rng_(seed) {
  const bool nic = backend == Backend::kNicOffloaded;
  auto make = [&](coll::OpKind kind, coll::ReduceOp op) {
    coll::CollSpec spec;
    spec.op = kind;
    spec.engine = nic ? coll::Engine::kNic : coll::Engine::kHost;
    spec.reduce = op;
    return core::make_collective(cluster_, spec);
  };
  launch_bcast_ = make(coll::OpKind::kBcast, coll::ReduceOp::kSum);
  completion_gather_ = make(coll::OpKind::kAllreduce, coll::ReduceOp::kSum);
  heartbeat_reduce_ = make(coll::OpKind::kAllreduce, coll::ReduceOp::kMin);
  sync_barrier_ = make(coll::OpKind::kBarrier, coll::ReduceOp::kSum);
  node_status_.assign(static_cast<std::size_t>(cluster_.size()), 1);
  auto& reg = cluster_.engine().metrics();
  launches_ = reg.counter("storm.launches");
  syncs_ = reg.counter("storm.syncs");
  heartbeats_ = reg.counter("storm.heartbeats");
  heartbeats_missed_ = reg.counter("storm.heartbeats_missed");
}

void ResourceManager::submit(JobSpec spec, std::function<void(const JobResult&)> done) {
  queue_.push_back({spec, std::move(done)});
  if (!job_running_) start_next_job();
}

void ResourceManager::start_next_job() {
  assert(!job_running_);
  if (queue_.empty()) return;
  job_running_ = true;
  ++launches_;
  auto job = std::make_shared<PendingJob>(std::move(queue_.front()));
  queue_.pop_front();

  const int n = cluster_.size();
  auto& engine = cluster_.engine();
  const sim::SimTime launched_at = engine.now();

  // Shared per-job state, kept alive until the completion gather finishes.
  struct JobRun {
    sim::SimTime launch_done;   // last node had descriptor + spawned
    int spawned = 0;
  };
  auto run = std::make_shared<JobRun>();

  for (int node = 0; node < n; ++node) {
    // Phase 1: the descriptor reaches every node via broadcast.
    launch_bcast_->enter(
        node, node == 0 ? job->spec.job_id : 0,
        [this, node, run, job, launched_at, n](std::int64_t) mutable {
          auto& engine = cluster_.engine();
          auto& nd = cluster_.node(node);
          // Spawn cost (fork/exec of the gang member), then the job's work
          // with per-node imbalance, then the completion gather.
          const double jitter =
              1.0 + job->spec.imbalance * (2.0 * rng_.next_double() - 1.0);
          const auto work = sim::microseconds(
              job->spec.work_per_node.micros() * (jitter < 0 ? 0 : jitter));
          const auto spawn = sim::microseconds(5);
          if (++run->spawned == n) run->launch_done = engine.now();
          nd.host_cpu().exec(spawn + work, [this, node, run, job, launched_at] {
            completion_gather_->enter(
                node, job->spec.exit_code,
                [this, node, run, job, launched_at](std::int64_t exit_sum) {
                  if (node != 0) return;  // the front end reports
                  JobResult result;
                  result.job_id = job->spec.job_id;
                  result.launch_latency = run->launch_done - launched_at;
                  result.total_runtime = cluster_.engine().now() - launched_at;
                  result.exit_code_sum = exit_sum;
                  ++jobs_completed_;
                  job_running_ = false;
                  if (job->done) job->done(result);
                  start_next_job();
                });
          });
        });
  }
}

void ResourceManager::global_sync(std::function<void()> done) {
  ++syncs_;
  sync_barrier_->enter(0, 0, [done = std::move(done)](std::int64_t) { done(); });
  for (int node = 1; node < cluster_.size(); ++node) {
    sync_barrier_->enter(node, 0, [](std::int64_t) {});
  }
}

void ResourceManager::heartbeat(std::function<void(bool)> done) {
  ++heartbeats_;
  const int n = cluster_.size();
  for (int node = 0; node < n; ++node) {
    heartbeat_reduce_->enter(
        node, node_status_[static_cast<std::size_t>(node)],
        [this, node, done](std::int64_t min_status) {
          if (node != 0) return;
          if (min_status < 1) ++heartbeats_missed_;
          if (done) done(min_status >= 1);
        });
  }
}

void ResourceManager::set_node_healthy(int node, bool healthy) {
  node_status_.at(static_cast<std::size_t>(node)) = healthy ? 1 : 0;
}

}  // namespace qmb::storm
