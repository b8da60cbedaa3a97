// Builds and owns the executors of a multi-tenant workload: one barrier or
// collective engine per (group, distinct op kind) pair, each occupying its
// own NIC group slot with its own send queue (paper design point #1), over
// possibly overlapping memberships. Routes each issued operation to the
// right executor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "load/workload.hpp"
#include "run/substrate.hpp"

namespace qmb::load {

class GroupManager {
 public:
  /// Builds every group's executors up front (group construction models
  /// one-time setup, off the measured path). spec.workload must be enabled
  /// and pre-validated; spec and cluster must outlive the manager.
  GroupManager(run::SubstrateCluster& cluster, const run::ExperimentSpec& spec);

  [[nodiscard]] int groups() const { return static_cast<int>(groups_.size()); }
  [[nodiscard]] int group_size() const { return spec_.workload.group_size; }
  /// The op kind of group g's k-th issued operation (phase-shifted mix).
  [[nodiscard]] coll::OpKind kind_of(int g, int op_index) const;
  [[nodiscard]] const std::vector<int>& placement(int g) const;
  /// Group 0's first executor's self-reported name
  /// ("myri-nic-coll-dissemination", ...).
  [[nodiscard]] std::string_view impl_name() const { return impl_name_; }

  /// Rank `rank` of group `g` enters its op `op_index` with `value`;
  /// `done(result)` runs on that rank's host (result 0 for barriers).
  void enter(int g, int op_index, int rank, std::int64_t value,
             std::function<void(std::int64_t)> done);

 private:
  struct Group {
    std::vector<int> placement;
    std::vector<std::unique_ptr<core::Collective>> execs;  // one per distinct mix kind
  };

  const run::ExperimentSpec& spec_;
  std::vector<coll::OpKind> kinds_;
  std::vector<Group> groups_;
  std::string impl_name_;
};

}  // namespace qmb::load
