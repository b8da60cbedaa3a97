// Experiment execution layer: one simulation point as data.
//
// Every figure in the paper is a sweep — latency vs. node count, drop
// probability, NIC preset — and every sweep point is an independent
// simulation: build an Engine and a cluster, run warm-up + timed
// iterations, read the statistics. ExperimentSpec captures that point
// declaratively; run_experiment() executes it on a private Engine (no
// shared state, so points can run on any thread); RunResult carries the
// latency summary, protocol counters, and a determinism fingerprint that
// must be bit-identical across reruns and thread counts.
//
// Determinism contract: a RunResult is a pure function of its
// ExperimentSpec. All randomness (placement permutation, fault rules)
// derives from spec.seed; simulated time is integer picoseconds; the
// engine breaks ties by insertion order. fingerprint() digests the exact
// event counts and integer latency stats — two runs of the same spec, on
// any thread of any sweep, must produce equal fingerprints.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.hpp"
#include "core/collectives.hpp"
#include "load/workload.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"

namespace qmb::run {

enum class Network { kMyrinetXP, kMyrinetL9, kQuadrics, kInfiniBand };

/// Barrier/collective implementation selector, across both networks.
/// nic/host exist everywhere; direct is the Myrinet prior-work NIC scheme;
/// gsync/hgsync are the Quadrics Elanlib tree and hardware barriers.
enum class Impl { kNic, kHost, kDirect, kGsync, kHgsync };

[[nodiscard]] std::string_view to_string(Network n);
[[nodiscard]] std::string_view to_string(Impl i);
[[nodiscard]] std::string_view to_string(coll::OpKind k);
[[nodiscard]] std::optional<Network> parse_network(std::string_view s);
[[nodiscard]] std::optional<Impl> parse_impl(std::string_view s);
[[nodiscard]] std::optional<coll::Algorithm> parse_algorithm(std::string_view s);
/// The short CLI spelling parse_algorithm accepts ("ds", "pe", "gb",
/// "tree", "trn", "fway").
[[nodiscard]] std::string_view algorithm_cli_name(coll::Algorithm a);
[[nodiscard]] std::optional<coll::OpKind> parse_op(std::string_view s);

struct ExperimentSpec {
  Network network = Network::kMyrinetXP;
  int nodes = 8;
  coll::OpKind op = coll::OpKind::kBarrier;
  Impl impl = Impl::kNic;
  coll::Algorithm algorithm = coll::Algorithm::kDissemination;
  /// Algorithm radix: the gather-broadcast tree degree and the f of f-way
  /// dissemination. 0 (the default) picks the algorithm's own default and
  /// is bit-identical to specs that predate this field.
  int radix = 0;
  /// Split-phase compute overlap in microseconds. Negative (the default)
  /// runs the blocking enter() loop, bit-identical to specs that predate
  /// this field. >= 0 switches the run to the GASNet-style split-phase
  /// loop with that much simulated computation between the two phases:
  /// notify/compute/wait for barriers, start/compute/wait for value
  /// collectives (bcast/allreduce/allgather/alltoall).
  double overlap_us = -1.0;
  int iters = 200;
  int warmup = 20;
  std::uint64_t seed = 1;
  bool random_placement = false;
  double drop_prob = 0.0;              // wire loss (loss-capable substrates only)
  myri::CollFeatures features{};       // NIC-collective ablation switches
  bool collect_trace = false;          // fills RunResult::trace_csv
  bool chrome_trace = false;           // fills RunResult::trace_json

  /// Fault plan installed into the fabric before the run (rule order is
  /// match order). Only legal on substrates whose capability flags report
  /// a loss-recovery path (like drop_prob); validate() enforces it.
  /// Deterministic: probabilistic rules carry their own seeds.
  std::vector<net::FaultSpec> faults;

  /// Max per-entry skew in microseconds: each rank's every (re-)entry is
  /// delayed by a uniform draw in [0, skew_max_us], from an RNG derived
  /// from `seed`. 0 = the historical tight re-entry loop (bit-identical to
  /// specs that predate this field). Blocking runs only: validate()
  /// rejects it with overlap_us or a workload.
  double skew_max_us = 0.0;

  /// Simulated-time watchdog for the whole run. A protocol bug that
  /// retransmits forever (or deadlocks) surfaces as a "did not complete"
  /// error at this horizon instead of spinning the engine; the fuzzer runs
  /// with a tight horizon so shrink iterations stay fast.
  std::int64_t horizon_ms = 120'000;

  /// Multi-tenant workload layer: when enabled (groups > 0) the run becomes
  /// `workload.groups` concurrent process groups issuing the workload's op
  /// mix from its arrival process, with optional background flood traffic,
  /// instead of one group of all nodes running `op`. `op` and
  /// `random_placement` are ignored in workload mode (the mix and the
  /// membership policy replace them; `skew_max_us` is rejected, the
  /// arrival process replaces it); `impl`, `algorithm`,
  /// faults, and drop_prob apply to every group. Disabled (the default) is
  /// bit-identical to specs that predate this field.
  load::WorkloadSpec workload;

  /// Worker threads for the conservative-PDES engine. 1 (the default) runs
  /// the classic sequential loop and is bit-identical to specs that predate
  /// this field. >1 shards the fabric into engine domains and advances them
  /// in lookahead-bounded windows — and because the domain cut and the
  /// window merge order depend only on the spec (never on thread count),
  /// every RunResult fingerprint is bit-identical at any engine_threads
  /// value. Runs that PDES cannot serve (workloads, faults, wire loss,
  /// entry skew, random placement, hardware-broadcast impls) silently run
  /// sequentially; only an *explicit* engine_domains on such a spec is a
  /// usage error.
  int engine_threads = 1;

  /// Target PDES domain count. 0 (default) = auto: a fixed target chosen
  /// by the runner when engine_threads > 1 (fixed so the cut — and thus the
  /// fingerprint-relevant window schedule — never depends on thread count).
  /// >1 forces a cut of roughly that many domains even at engine_threads=1
  /// (useful for testing the windowed path without parallelism).
  int engine_domains = 0;
};

/// Empty string when the spec is runnable; otherwise a usage error naming
/// the offending value *pair* (e.g. which impl is invalid for which
/// network), suitable for printing verbatim.
[[nodiscard]] std::string validate(const ExperimentSpec& spec);

/// The spec feature that blocks conservative PDES, or empty when the spec
/// is eligible. Ineligible specs with engine_threads > 1 silently run
/// sequentially (threads never change results); an explicit
/// engine_domains > 1 on one is a validate() usage error.
[[nodiscard]] std::string_view pdes_blocker(const ExperimentSpec& spec);

/// Resolved PDES domain target for a spec: <= 1 means run sequentially.
/// Substrate adapters pass this into their cluster constructors so the cut
/// happens at fabric construction. The auto target (engine_domains == 0,
/// engine_threads > 1) is a fixed constant — never derived from the thread
/// count, so the window schedule (and the fingerprint) cannot depend on it.
[[nodiscard]] int pdes_domain_target(const ExperimentSpec& spec);

struct RunResult {
  ExperimentSpec spec;
  std::string impl_name;  // the executor's self-reported name
  std::uint64_t iterations = 0;

  // Integer picoseconds — exact, so they participate in the fingerprint.
  std::int64_t mean_picos = 0;
  std::int64_t min_picos = 0;
  std::int64_t max_picos = 0;
  std::int64_t p99_picos = 0;

  std::uint64_t events_scheduled = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t nacks = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t hw_probes = 0;         // Quadrics hgsync only
  std::uint64_t hw_failed_probes = 0;  // Quadrics hgsync only
  /// Inbound CRC discards at the NICs (fault-injected corruption).
  std::uint64_t crc_dropped = 0;
  /// Value-collective results that differed from the exact expected value
  /// (run_experiment enters rank r with value r+1 and knows each op kind's
  /// right answer). Always 0 for barriers; any non-zero value is a protocol
  /// correctness bug, not noise. Not part of fingerprint() — the fuzzer's
  /// invariants consume it directly.
  std::uint64_t value_errors = 0;
  /// Per-rank operation completions observed / expected (nodes x total
  /// iterations). run_experiment throws when they diverge at the horizon,
  /// so results you can read always have them equal; the fields exist for
  /// reporting symmetry in repro artifacts.
  std::uint64_t ops_done = 0;
  std::uint64_t ops_expected = 0;
  /// Per-group tail-latency summaries (workload mode only; empty
  /// otherwise). The aggregate latency fields above then summarize
  /// arrival->completion samples across all groups, and the per-group p99,
  /// op count, and backlog peak join the fingerprint.
  std::vector<load::GroupStats> group_stats;
  /// Jain fairness index over per-group throughput (workload mode only).
  double fairness = 0.0;
  /// Background flood messages issued (workload mode only).
  std::uint64_t flood_sends = 0;
  std::string trace_csv;               // only when spec.collect_trace
  std::string trace_json;              // Chrome trace_event doc, spec.chrome_trace
  // Events lost to trace-ring wrap-around during a traced run; the exports
  // above are the tail of the timeline when this is non-zero. Host-side
  // observability only — never part of fingerprint().
  std::uint64_t trace_dropped = 0;

  /// Conservative-PDES shape of the run: the actual domain count (1 =
  /// sequential), the synchronization windows executed, and the events
  /// fired per domain (empty when sequential). Host-side observability —
  /// NOT part of fingerprint(): the same spec must fingerprint identically
  /// whether it ran sequentially or sharded, and events_fired (which *is*
  /// fingerprinted) already proves the work was identical.
  int pdes_domains = 1;
  std::uint64_t pdes_windows = 0;
  std::vector<std::uint64_t> pdes_domain_events;

  /// Generic snapshot of every metric the run registered (protocol
  /// counters, gauges, log2 histograms), aggregated across nodes in
  /// registration order. The named fields above are lookups into the same
  /// registry, kept for the fingerprint and existing consumers.
  std::vector<obs::MetricValue> metrics;

  /// Wall-clock duration of the whole run (warmup + timed iterations),
  /// measured on steady_clock around the engine loop. Host-side throughput
  /// observability only: noisy, machine-dependent, and deliberately NOT
  /// part of fingerprint() — two runs with equal fingerprints may differ
  /// arbitrarily here.
  double host_seconds = 0.0;

  /// Simulator throughput: events fired per host second (0 when the run
  /// was too fast for the clock to resolve).
  [[nodiscard]] double events_per_sec() const {
    return host_seconds > 0.0 ? static_cast<double>(events_fired) / host_seconds : 0.0;
  }

  [[nodiscard]] double mean_us() const { return static_cast<double>(mean_picos) * 1e-6; }
  [[nodiscard]] double min_us() const { return static_cast<double>(min_picos) * 1e-6; }
  [[nodiscard]] double max_us() const { return static_cast<double>(max_picos) * 1e-6; }
  [[nodiscard]] double p99_us() const { return static_cast<double>(p99_picos) * 1e-6; }

  /// Digest of everything that must be bit-identical across reruns of the
  /// same spec: event counts, wire counters, and the integer latency stats.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Runs one experiment on a private Engine. Thread-safe with respect to
/// other concurrent runs (the simulation shares no mutable state). Throws
/// std::invalid_argument with validate()'s message on a bad spec.
[[nodiscard]] RunResult run_experiment(const ExperimentSpec& spec);

/// Deterministic per-point seed stream: splitmix64 over the base seed, so a
/// sweep's points get decorrelated yet reproducible seeds regardless of the
/// order (or thread) they execute on.
[[nodiscard]] std::uint64_t seed_for(std::uint64_t base_seed, std::size_t index);

/// Single-line JSON object for one (spec, result) pair.
[[nodiscard]] std::string to_json(const RunResult& r);

/// Compact JSON object for a metric snapshot: counters/gauges as numbers,
/// histograms as {count, sum, buckets}. Used inside to_json and by
/// qmbsim --metrics-json.
[[nodiscard]] std::string metrics_to_json(const std::vector<obs::MetricValue>& metrics);

}  // namespace qmb::run
