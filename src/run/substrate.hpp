// The substrate registry: every network the simulator models is one
// Substrate descriptor — a name, a set of capability flags, and a cluster
// builder — and the run layer dispatches through it instead of
// special-casing networks. Adding a substrate means adding one adapter TU
// (see substrate_myrinet.cpp / substrate_quadrics.cpp / substrate_ib.cpp)
// and registering it in substrate.cpp; validate(), the CLI name lists, the
// fuzzer's case derivation, and the bench suite all pick it up from here.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/coll_spec.hpp"
#include "run/experiment.hpp"

namespace qmb::run {

/// What a substrate supports, as data. validate() turns these flags into
/// usage errors, derive_case respects them when drawing fault plans, and
/// the CLI lists legal values from them — no hand-rolled per-network
/// strings anywhere else.
///
/// Only what differs between substrates is here. Every substrate runs value
/// collectives (bcast/allreduce/allgather/alltoall) on the nic and host
/// engines, runs every (op kind, algorithm) pair of the schedule layer's
/// coll::collective_algorithms_for table on its schedule-driven impls, and
/// exposes the 2047 concurrent groups the BarrierTag group field can name;
/// caps_allow / caps_algorithms and validate() read those shared sources
/// directly.
struct SubstrateCaps {
  /// Lost, duplicated and corrupted packets are recovered here, so
  /// --drop-prob and net::FaultSpec plans are legal.
  bool loss_recovery = false;
  bool ablations = false;  // myri::CollFeatures ablation switches apply
  std::vector<Impl> barrier_impls;  // legal --impl values for barriers
  /// Barrier impls that embed a fixed pattern and ignore schedules (the
  /// Quadrics gsync tree and hardware barrier, and quadrics --impl host
  /// which maps to the gsync tree). validate() rejects a non-default
  /// --algorithm with these instead of silently ignoring it.
  std::vector<Impl> fixed_pattern_barrier_impls;
  /// Sustainable per-stream background-flood throughput: the byte rate of
  /// the flood path's tightest server. validate()'s admission check
  /// rejects open-loop streams offered at or above this rate: their queues
  /// diverge and every collective sharing the path starves until the
  /// horizon, surfacing as a deep "did not complete" failure instead of a
  /// usage error. Loads near (but below) the bound are legal and slow —
  /// which is what the tenancy benchmarks measure. The admission model is
  /// service = bytes / flood_bytes_per_second + flood_message_overhead_s;
  /// costs outside the modeled bottleneck are not folded in, so offered
  /// loads near the bound may still diverge — the horizon watchdog remains
  /// the backstop.
  double flood_bytes_per_second = 0.0;
  /// Fixed per-message service time on the same bottleneck. On Myrinet the
  /// tightest server is the *sender's* MCP send engine (same-destination
  /// messages queue FIFO behind it), so this is the serialized LANai
  /// firmware cycles of one send plus the PCI doorbell and DMA setup; on
  /// Quadrics and IB it is the per-message event/completion-unit costs on
  /// top of the wire rate.
  double flood_message_overhead_s = 0.0;
};

/// A built cluster behind a uniform face: the generic experiment driver
/// only needs the fabric (for fault installation) and the executor
/// factories.
class SubstrateCluster {
 public:
  virtual ~SubstrateCluster() = default;
  [[nodiscard]] virtual net::Fabric& fabric() = 0;
  /// Builds the spec's operation (kind, impl, algorithm, radix) over
  /// `placement` (rank -> node). Each adapter lowers the spec with
  /// coll_spec_of and calls core::make_collective, or builds the paper
  /// baseline the impl names (Myrinet direct, Quadrics gsync/hgsync).
  [[nodiscard]] virtual std::unique_ptr<core::Collective> make_collective(
      const ExperimentSpec& spec, std::vector<int> placement) = 0;
  /// Kept for perfbench: make_collective for a barrier spec.
  [[nodiscard]] std::unique_ptr<core::Collective> make_barrier(const ExperimentSpec& spec,
                                                               std::vector<int> placement) {
    return make_collective(spec, std::move(placement));
  }

  /// Prepares every node for background point-to-point flood traffic:
  /// each node's host inbox listens, so every flood message costs its
  /// receiving host one poll whatever the --impl (the Myrinet adapter also
  /// provisions and replenishes receive buffers so plain-tagged messages
  /// never trigger NACK storms). Called once before any flood_send.
  virtual void flood_prepare() = 0;
  /// One background point-to-point message src -> dst with an application
  /// tag (no BarrierTag base bit), riding the substrate's ordinary host
  /// send path — the open-loop generator's flood/p2p_rand traffic.
  virtual void flood_send(int src, int dst, std::uint32_t bytes, std::uint32_t tag) = 0;
};

/// The CollSpec for `spec`'s operation over `placement`: its kind,
/// algorithm and radix, on the host engine for --impl host and on the NIC
/// engine otherwise.
[[nodiscard]] coll::CollSpec coll_spec_of(const ExperimentSpec& spec, std::vector<int> placement);

/// One registered network model.
class Substrate {
 public:
  virtual ~Substrate() = default;
  [[nodiscard]] virtual Network network() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual const SubstrateCaps& caps() const = 0;
  /// Builds the cluster for `spec` on a private engine. The spec is
  /// pre-validated; builders may read nodes, features, and seed.
  [[nodiscard]] virtual std::unique_ptr<SubstrateCluster> build_cluster(
      sim::Engine& engine, const ExperimentSpec& spec, sim::Tracer* tracer) const = 0;
};

/// All registered substrates, in registration order (stable: the order the
/// CLI lists them and derive_case indexes them).
[[nodiscard]] const std::vector<const Substrate*>& substrates();

/// The substrate for a Network enumerator (every enumerator is registered).
[[nodiscard]] const Substrate& substrate_for(Network n);

/// Lookup by CLI name; nullptr when unknown.
[[nodiscard]] const Substrate* find_substrate(std::string_view name);

/// "myrinet-xp, myrinet-l9, quadrics, ib" (with `sep` between names) — for
/// usage text and parse errors.
[[nodiscard]] std::string substrate_names(std::string_view sep = ", ");

/// Names of the substrates whose caps allow loss injection, for the
/// validate() error text ("myrinet-xp/myrinet-l9/ib").
[[nodiscard]] std::string loss_capable_names(std::string_view sep = "/");

/// Whether `impl` is legal for `op` under `caps`.
[[nodiscard]] bool caps_allow(const SubstrateCaps& caps, coll::OpKind op, Impl impl);

/// The legal --impl list for `op` under `caps`, e.g. "nic, host, direct".
[[nodiscard]] std::string caps_impl_list(const SubstrateCaps& caps, coll::OpKind op);

/// The algorithms the schedule-driven executors run for `op`, on every
/// substrate: coll::collective_algorithms_for(op).
[[nodiscard]] const std::vector<coll::Algorithm>& caps_algorithms(coll::OpKind op);

/// Whether `a` is an algorithm the schedule-driven executors run for `op`.
[[nodiscard]] bool caps_allow_algorithm(coll::OpKind op, coll::Algorithm a);

/// The legal --algorithm list for `op`, e.g. "ds, pe, gb, tree, trn, fway".
[[nodiscard]] std::string caps_algorithm_list(coll::OpKind op);

}  // namespace qmb::run
