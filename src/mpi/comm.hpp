// A minimal MPI-like layer over the simulated cluster — the integration
// target the paper names in its future work ("incorporate this barrier
// algorithm into LA-MPI"). One Communicator spans all ranks of a cluster
// and dispatches each collective to either the host-based executors or the
// NIC-based collective protocol, so an application written against this
// API measures exactly what an MPI library would gain from the offload.
//
// All operations are callback-completed (the simulation's natural shape);
// awaitable adapters for coroutine-style applications are provided.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "core/cluster.hpp"
#include "core/collectives.hpp"

namespace qmb::mpi {

enum class Backend {
  kHostBased,      // collectives over GM point-to-point (MPICH-style)
  kNicCollective,  // collectives offloaded to the NIC protocol (the paper)
};

[[nodiscard]] std::string_view to_string(Backend b);

class Communicator {
 public:
  /// Spans every node of the cluster (or the given rank placement).
  Communicator(core::MyriCluster& cluster, Backend backend,
               std::vector<int> rank_to_node = {});

  [[nodiscard]] int size() const { return static_cast<int>(rank_to_node_.size()); }
  [[nodiscard]] Backend backend() const { return backend_; }

  /// MPI_Barrier. `done` runs on `rank`'s host at completion.
  void barrier(int rank, std::function<void()> done);

  /// MPI_Bcast of one word from `root`. Every rank's `done` receives the
  /// root's value (the root passes it as `value`; other ranks' `value` is
  /// ignored).
  void bcast(int rank, int root, std::int64_t value,
             std::function<void(std::int64_t)> done);

  /// MPI_Allreduce of one word.
  void allreduce(int rank, std::int64_t value, coll::ReduceOp op,
                 std::function<void(std::int64_t)> done);

  /// MPI_Allgather of one contribution flag per rank: rank r contributes
  /// bit r; `done` receives the union mask (all bits set on success).
  void allgather(int rank, std::function<void(std::int64_t)> done);

  /// MPI_Alltoall of one word per rank pair (modeled as a contribution
  /// mask; `done` receives the union, all bits set on success).
  void alltoall(int rank, std::function<void(std::int64_t)> done);

  /// Point-to-point escape hatch: plain GM send/receive between ranks.
  void send(int rank, int dst_rank, std::uint32_t bytes, std::uint32_t tag,
            sim::EventCallback on_complete = {});
  void set_receive_handler(int rank,
                           std::function<void(int src_rank, std::uint32_t tag,
                                              std::uint32_t bytes)> fn);

 private:
  core::Collective& bcast_for_root(int root);
  core::Collective& allreduce_for_op(coll::ReduceOp op);
  std::unique_ptr<core::Collective> make_collective(coll::OpKind kind, int root,
                                                    coll::ReduceOp op);

  core::MyriCluster& cluster_;
  Backend backend_;
  std::vector<int> rank_to_node_;
  std::vector<int> node_to_rank_;
  std::unique_ptr<core::Collective> barrier_;
  std::map<int, std::unique_ptr<core::Collective>> bcasts_;           // by root
  std::map<coll::ReduceOp, std::unique_ptr<core::Collective>> reduces_;
  std::unique_ptr<core::Collective> allgather_;
  std::unique_ptr<core::Collective> alltoall_;
};

/// Awaitable adapters for coroutine applications:
///   co_await mpi::barrier(comm, rank);
///   const std::int64_t sum = co_await mpi::allreduce(comm, rank, v, op);
struct BarrierAwaiter {
  Communicator& comm;
  int rank;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    comm.barrier(rank, [h] { h.resume(); });
  }
  void await_resume() const {}
};
[[nodiscard]] inline BarrierAwaiter barrier(Communicator& comm, int rank) {
  return {comm, rank};
}

struct AllreduceAwaiter {
  Communicator& comm;
  int rank;
  std::int64_t value;
  coll::ReduceOp op;
  std::int64_t result = 0;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    comm.allreduce(rank, value, op, [this, h](std::int64_t r) {
      result = r;
      h.resume();
    });
  }
  std::int64_t await_resume() const { return result; }
};
[[nodiscard]] inline AllreduceAwaiter allreduce(Communicator& comm, int rank,
                                                std::int64_t value, coll::ReduceOp op) {
  return {comm, rank, value, op};
}

struct BcastAwaiter {
  Communicator& comm;
  int rank;
  int root;
  std::int64_t value;
  std::int64_t result = 0;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    comm.bcast(rank, root, value, [this, h](std::int64_t r) {
      result = r;
      h.resume();
    });
  }
  std::int64_t await_resume() const { return result; }
};
[[nodiscard]] inline BcastAwaiter bcast(Communicator& comm, int rank, int root,
                                        std::int64_t value) {
  return {comm, rank, root, value};
}

}  // namespace qmb::mpi
