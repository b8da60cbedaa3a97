#include "mpi/comm.hpp"

#include <cassert>
#include <stdexcept>

#include "core/coll_tag.hpp"

namespace qmb::mpi {

std::string_view to_string(Backend b) {
  switch (b) {
    case Backend::kHostBased: return "host-based";
    case Backend::kNicCollective: return "nic-collective";
  }
  return "?";
}

Communicator::Communicator(core::MyriCluster& cluster, Backend backend,
                           std::vector<int> rank_to_node)
    : cluster_(cluster), backend_(backend), rank_to_node_(std::move(rank_to_node)) {
  if (rank_to_node_.empty()) rank_to_node_ = core::identity_placement(cluster.size());
  node_to_rank_.assign(static_cast<std::size_t>(cluster_.size()), -1);
  for (int r = 0; r < size(); ++r) {
    node_to_rank_.at(static_cast<std::size_t>(rank_to_node_[static_cast<std::size_t>(r)])) = r;
  }
  barrier_ = make_collective(coll::OpKind::kBarrier, 0, coll::ReduceOp::kSum);
}

std::unique_ptr<core::Collective> Communicator::make_collective(coll::OpKind kind,
                                                                int root,
                                                                coll::ReduceOp op) {
  coll::CollSpec spec;
  spec.op = kind;
  spec.engine = backend_ == Backend::kNicCollective ? coll::Engine::kNic
                                                    : coll::Engine::kHost;
  spec.root = root;
  spec.reduce = op;
  spec.rank_to_node = rank_to_node_;
  return core::make_collective(cluster_, spec);
}

core::Collective& Communicator::bcast_for_root(int root) {
  auto it = bcasts_.find(root);
  if (it == bcasts_.end()) {
    it = bcasts_.emplace(root, make_collective(coll::OpKind::kBcast, root,
                                               coll::ReduceOp::kSum)).first;
  }
  return *it->second;
}

core::Collective& Communicator::allreduce_for_op(coll::ReduceOp op) {
  auto it = reduces_.find(op);
  if (it == reduces_.end()) {
    it = reduces_.emplace(op, make_collective(coll::OpKind::kAllreduce, 0, op)).first;
  }
  return *it->second;
}

void Communicator::barrier(int rank, std::function<void()> done) {
  barrier_->enter(rank, 0, [done = std::move(done)](std::int64_t) { done(); });
}

void Communicator::bcast(int rank, int root, std::int64_t value,
                         std::function<void(std::int64_t)> done) {
  if (root < 0 || root >= size()) throw std::invalid_argument("bcast root out of range");
  bcast_for_root(root).enter(rank, rank == root ? value : 0, std::move(done));
}

void Communicator::allreduce(int rank, std::int64_t value, coll::ReduceOp op,
                             std::function<void(std::int64_t)> done) {
  allreduce_for_op(op).enter(rank, value, std::move(done));
}

void Communicator::allgather(int rank, std::function<void(std::int64_t)> done) {
  if (size() > 62) throw std::invalid_argument("allgather mask supports <= 62 ranks");
  if (!allgather_) {
    allgather_ = make_collective(coll::OpKind::kAllgather, 0, coll::ReduceOp::kSum);
  }
  allgather_->enter(rank, std::int64_t{1} << rank, std::move(done));
}

void Communicator::alltoall(int rank, std::function<void(std::int64_t)> done) {
  if (size() > 62) throw std::invalid_argument("alltoall mask supports <= 62 ranks");
  if (!alltoall_) {
    alltoall_ = make_collective(coll::OpKind::kAlltoall, 0, coll::ReduceOp::kSum);
  }
  alltoall_->enter(rank, std::int64_t{1} << rank, std::move(done));
}

void Communicator::send(int rank, int dst_rank, std::uint32_t bytes, std::uint32_t tag,
                        sim::EventCallback on_complete) {
  if (core::BarrierTag::is_barrier(tag)) {
    throw std::invalid_argument("application tags must not set the collective bit");
  }
  const int src_node = rank_to_node_.at(static_cast<std::size_t>(rank));
  const int dst_node = rank_to_node_.at(static_cast<std::size_t>(dst_rank));
  auto& port = cluster_.node(src_node).port();
  cluster_.node(dst_node).port().provide_receive_buffers(1);
  port.send(dst_node, bytes, tag, std::move(on_complete));
}

void Communicator::set_receive_handler(
    int rank, std::function<void(int, std::uint32_t, std::uint32_t)> fn) {
  const int node = rank_to_node_.at(static_cast<std::size_t>(rank));
  cluster_.node(node).port().inbox().set_receive_handler(
      [this, fn = std::move(fn)](const myri::RecvEvent& ev) {
        const int src_rank = node_to_rank_.at(static_cast<std::size_t>(ev.src_node));
        fn(src_rank, ev.tag, ev.bytes);
      });
}

}  // namespace qmb::mpi
