#include "run/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/coll_tag.hpp"
#include "load/runner.hpp"
#include "obs/json.hpp"
#include "run/substrate.hpp"

namespace qmb::run {

std::string_view to_string(Network n) {
  switch (n) {
    case Network::kMyrinetXP: return "myrinet-xp";
    case Network::kMyrinetL9: return "myrinet-l9";
    case Network::kQuadrics: return "quadrics";
    case Network::kInfiniBand: return "ib";
  }
  return "?";
}

std::string_view to_string(Impl i) {
  switch (i) {
    case Impl::kNic: return "nic";
    case Impl::kHost: return "host";
    case Impl::kDirect: return "direct";
    case Impl::kGsync: return "gsync";
    case Impl::kHgsync: return "hgsync";
  }
  return "?";
}

std::string_view to_string(coll::OpKind k) { return coll::to_string(k); }

std::optional<Network> parse_network(std::string_view s) {
  if (const Substrate* sub = find_substrate(s)) return sub->network();
  return std::nullopt;
}

std::optional<Impl> parse_impl(std::string_view s) {
  if (s == "nic") return Impl::kNic;
  if (s == "host") return Impl::kHost;
  if (s == "direct") return Impl::kDirect;
  if (s == "gsync") return Impl::kGsync;
  if (s == "hgsync") return Impl::kHgsync;
  return std::nullopt;
}

std::optional<coll::Algorithm> parse_algorithm(std::string_view s) {
  if (s == "ds") return coll::Algorithm::kDissemination;
  if (s == "pe") return coll::Algorithm::kPairwiseExchange;
  if (s == "gb") return coll::Algorithm::kGatherBroadcast;
  if (s == "tree") return coll::Algorithm::kTree;
  if (s == "trn") return coll::Algorithm::kTournament;
  if (s == "fway") return coll::Algorithm::kFwayDissemination;
  return std::nullopt;
}

std::string_view algorithm_cli_name(coll::Algorithm a) {
  switch (a) {
    case coll::Algorithm::kDissemination: return "ds";
    case coll::Algorithm::kPairwiseExchange: return "pe";
    case coll::Algorithm::kGatherBroadcast: return "gb";
    case coll::Algorithm::kTree: return "tree";
    case coll::Algorithm::kTournament: return "trn";
    case coll::Algorithm::kFwayDissemination: return "fway";
  }
  return "?";
}

std::optional<coll::OpKind> parse_op(std::string_view s) { return coll::parse_op_kind(s); }

namespace {

std::string pair_error(const ExperimentSpec& s, const std::string& why,
                       const std::string& valid) {
  std::string msg = "invalid combination: --impl ";
  msg += to_string(s.impl);
  msg += " with --network ";
  msg += to_string(s.network);
  if (s.op != coll::OpKind::kBarrier) {
    msg += " --op ";
    msg += coll::to_string(s.op);
  }
  msg += " (";
  msg += why;
  msg += "; valid: ";
  msg += valid;
  msg += ")";
  return msg;
}

/// Why a rejected impl is rejected, for the usage text. Membership itself
/// comes from the substrate's capability flags; these notes only explain.
std::string impl_note(const ExperimentSpec& s) {
  if (s.op != coll::OpKind::kBarrier) {
    return "value collectives only have NIC and host engines";
  }
  if (s.impl == Impl::kGsync || s.impl == Impl::kHgsync) {
    return "gsync/hgsync are Quadrics barriers";
  }
  if (s.impl == Impl::kDirect) {
    return "direct is the Myrinet prior-work NIC scheme";
  }
  return std::string("not a ") + std::string(to_string(s.network)) + " implementation";
}

std::string loss_error(const ExperimentSpec& s, const char* what, const char* remove) {
  std::string msg = what;
  msg += " not supported on --network ";
  msg += to_string(s.network);
  msg += " (";
  msg += to_string(s.network);
  msg += " has no loss-recovery path); ";
  msg += remove;
  msg += " or use --network ";
  msg += loss_capable_names();
  return msg;
}

}  // namespace

std::string_view pdes_blocker(const ExperimentSpec& s) {
  if (s.workload.enabled()) return "--workload";
  if (s.overlap_us >= 0.0) return "--overlap";
  if (!s.faults.empty()) return "--fault rules";
  if (s.drop_prob > 0.0) return "--drop-prob";
  if (s.skew_max_us > 0.0) return "--skew";
  if (s.random_placement) return "--random-placement";
  if (s.collect_trace || s.chrome_trace) return "tracing";
  if (s.impl != Impl::kNic && s.impl != Impl::kHost && s.impl != Impl::kDirect) {
    return "hardware-broadcast impls (gsync/hgsync)";
  }
  return {};
}

namespace {
/// Auto domain target when engine_threads > 1 and engine_domains is 0.
/// Deliberately a constant: deriving it from the thread count would make
/// the domain cut — and thus the window schedule every counter-affecting
/// merge runs through — thread-dependent, breaking fingerprint invariance.
constexpr int kAutoDomainTarget = 32;
}  // namespace

int pdes_domain_target(const ExperimentSpec& s) {
  if (!pdes_blocker(s).empty()) return 1;
  if (s.engine_domains > 1) return s.engine_domains;
  return s.engine_threads > 1 ? kAutoDomainTarget : 1;
}

std::string validate(const ExperimentSpec& s) {
  if (s.nodes < 2) return "--nodes must be >= 2 (got " + std::to_string(s.nodes) + ")";
  if (s.iters < 1) return "--iters must be >= 1 (got " + std::to_string(s.iters) + ")";
  if (s.warmup < 0) return "--warmup must be >= 0 (got " + std::to_string(s.warmup) + ")";
  if (s.drop_prob < 0.0 || s.drop_prob >= 1.0) {
    return "--drop-prob must be in [0, 1) (got " + std::to_string(s.drop_prob) + ")";
  }
  if (s.skew_max_us < 0.0) {
    return "--skew must be >= 0 microseconds (got " + std::to_string(s.skew_max_us) + ")";
  }
  if (s.horizon_ms < 1) {
    return "--horizon must be >= 1 ms (got " + std::to_string(s.horizon_ms) + ")";
  }
  if (s.engine_threads < 1) {
    return "--engine-threads must be >= 1 (got " + std::to_string(s.engine_threads) + ")";
  }
  if (s.engine_domains < 0) {
    return "--engine-domains must be >= 0 (got " + std::to_string(s.engine_domains) + ")";
  }
  if (s.engine_domains > 1) {
    if (const std::string_view why = pdes_blocker(s); !why.empty()) {
      return "--engine-domains is incompatible with " + std::string(why) +
             " (the parallel engine defers every send to a single-threaded window "
             "merge, which cannot reproduce that feature's event interleaving); "
             "drop --engine-domains to run sequentially";
    }
  }
  const SubstrateCaps& caps = substrate_for(s.network).caps();
  if (s.radix != 0 && s.radix < 2) {
    return "--radix must be 0 (algorithm default) or >= 2 (got " +
           std::to_string(s.radix) + ")";
  }
  if (!caps_allow_algorithm(s.op, s.algorithm)) {
    return std::string("--algorithm ") + std::string(algorithm_cli_name(s.algorithm)) +
           " is not supported for --op " + std::string(coll::to_string(s.op)) +
           " on --network " + std::string(to_string(s.network)) +
           " (valid: " + caps_algorithm_list(s.op) + ")";
  }
  if (s.radix != 0 && !coll::takes_radix(s.op, s.algorithm)) {
    return std::string("--radix does not apply to --algorithm ") +
           std::string(algorithm_cli_name(s.algorithm)) + " for --op " +
           std::string(coll::to_string(s.op)) +
           " (it sets the gb tree degree or the fway fan-out)";
  }
  if (s.op == coll::OpKind::kBarrier && s.algorithm != coll::Algorithm::kDissemination &&
      std::find(caps.fixed_pattern_barrier_impls.begin(),
                caps.fixed_pattern_barrier_impls.end(),
                s.impl) != caps.fixed_pattern_barrier_impls.end()) {
    return std::string("--impl ") + std::string(to_string(s.impl)) + " on --network " +
           std::string(to_string(s.network)) +
           " embeds a fixed pattern and ignores schedules; --algorithm only "
           "applies to the schedule-driven impls";
  }
  if (s.overlap_us >= 0.0 && s.workload.enabled()) {
    return "--overlap measures one split-phase group; it is incompatible "
           "with --workload";
  }
  if (s.skew_max_us > 0.0 && s.overlap_us >= 0.0) {
    return "--skew is incompatible with --overlap (the split-phase loop measures how "
           "much of the operation the compute hides; skewed entries would confound it)";
  }
  if (s.skew_max_us > 0.0 && s.workload.enabled()) {
    return "--skew is incompatible with --workload (the workload's arrival process "
           "decides when its groups enter)";
  }
  if (!caps.loss_recovery && s.drop_prob > 0.0) {
    return loss_error(s, "--drop-prob is", "remove it");
  }
  if (!caps.loss_recovery && !s.faults.empty()) {
    return loss_error(s, "--fault rules are", "remove them");
  }
  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    const net::FaultSpec& f = s.faults[i];
    if (const std::string err = net::validate(f); !err.empty()) {
      return "--fault rule " + std::to_string(i) + ": " + err;
    }
    if (f.src >= s.nodes || f.dst >= s.nodes) {
      return "--fault rule " + std::to_string(i) + ": src/dst node out of range for --nodes " +
             std::to_string(s.nodes);
    }
  }
  if (s.workload.enabled()) {
    // Up-front structural checks (group count vs. the 2047 groups the
    // BarrierTag group field can name, membership injectivity, rates) so
    // misconfiguration is a usage error here, not a collision deep in
    // cluster construction.
    if (const std::string err = load::validate_workload(
            s.workload, s.nodes, static_cast<int>(core::BarrierTag::kGroupMask));
        !err.empty()) {
      return err;
    }
    if (s.impl != Impl::kNic && s.impl != Impl::kHost) {
      return std::string("--workload runs its groups on the nic or host engine, not --impl ") +
             std::string(to_string(s.impl));
    }
    for (const coll::OpKind kind : load::distinct_kinds(s.workload)) {
      if (!caps_allow(caps, kind, s.impl)) {
        ExperimentSpec probe = s;
        probe.op = kind;
        return pair_error(probe, impl_note(probe), caps_impl_list(caps, kind));
      }
    }
    // Flood admission: an open-loop stream offered at or above the flood
    // path's bottleneck rate (wire serialization, or host-bound delivery
    // where slower) saturates it; the infinite-FIFO queue then diverges and
    // every collective sharing the path starves until the horizon. Name the
    // overload here instead.
    if (s.workload.flood_streams > 0 && caps.flood_bytes_per_second > 0.0) {
      const double service_us =
          (static_cast<double>(s.workload.flood_bytes) / caps.flood_bytes_per_second +
           caps.flood_message_overhead_s) *
          1e6;
      if (service_us >= s.workload.flood_period_us) {
        const std::string name(substrate_for(s.network).name());
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "--workload flood saturates the %s flood path: a %u-byte "
                      "message takes %.2fus to deliver but one arrives every "
                      "%gus (raise flood-period or shrink flood-bytes)",
                      name.c_str(), s.workload.flood_bytes, service_us,
                      s.workload.flood_period_us);
        return buf;
      }
    }
    return {};
  }
  if (!caps_allow(caps, s.op, s.impl)) {
    return pair_error(s, impl_note(s), caps_impl_list(caps, s.op));
  }
  return {};
}

namespace {

constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Lowers the spec's iteration knobs onto the core driver's plan. Skew
/// zero reproduces the historical tight re-entry loop bit-for-bit;
/// non-zero delays every (re-)entry by a seeded uniform draw.
core::RunPlan run_plan(const ExperimentSpec& s) {
  core::RunPlan plan{.warmup = s.warmup,
                     .iters = s.iters,
                     .horizon = sim::milliseconds(s.horizon_ms)};
  if (s.overlap_us >= 0.0) plan.overlap = sim::microseconds(s.overlap_us);
  if (s.skew_max_us > 0.0) {
    plan.max_skew = sim::microseconds(s.skew_max_us);
    // Decorrelate from placement/fault draws that also consume spec.seed.
    plan.skew_seed = mix64(s.seed ^ 0x534B4557ULL);  // "SKEW"
  }
  return plan;
}

void fill_latency(RunResult& out, const core::RunSeries& r, sim::Engine& engine) {
  out.iterations = r.iterations;
  out.mean_picos = r.mean.picos();
  out.min_picos = r.per_iteration.min().picos();
  out.max_picos = r.per_iteration.max().picos();
  out.p99_picos = r.per_iteration.percentile(99).picos();
  // Registered after the run completes, so it cannot perturb event order.
  obs::Histogram lat = engine.metrics().histogram("run.latency_picos");
  for (const sim::SimDuration d : r.per_iteration.samples()) {
    lat.record(static_cast<std::uint64_t>(d.picos()));
  }
}

/// Fills the named legacy counters (fingerprint inputs) from the registry
/// and snapshots everything else the components registered.
void fill_engine(RunResult& out, const sim::Engine& engine) {
  out.events_scheduled = engine.events_scheduled();
  out.events_fired = engine.events_fired();
  const obs::MetricRegistry& reg = engine.metrics();
  out.packets_sent = reg.total("fabric.packets_sent");
  out.bytes_sent = reg.total("fabric.bytes_sent");
  out.packets_dropped = reg.total("fabric.packets_dropped");
  // Unregistered names total to 0, so substrates only pay for counters
  // their components registered.
  out.nacks = reg.total("coll.nacks_sent") + reg.total("ib.naks_sent");
  out.retransmissions = reg.total("coll.retransmissions") +
                        reg.total("mcp.retransmissions") +
                        reg.total("ib.retransmissions");
  out.hw_probes = reg.total("hw.probes_sent");
  out.hw_failed_probes = reg.total("hw.failed_probes");
  out.crc_dropped = reg.total("nic.crc_dropped");
  out.metrics = reg.snapshot();
}

std::vector<int> placement_of(const ExperimentSpec& s) {
  if (!s.random_placement) return core::identity_placement(s.nodes);
  sim::Rng rng(s.seed);
  return core::random_placement(s.nodes, rng);
}

/// The one experiment driver, generic over substrates. Operation order is
/// load-bearing for the determinism fingerprints: cluster construction,
/// then the drop_prob rule (only when set), then the fault plan (spec rule
/// order is injector match order), then placement and the run.
RunResult run_on(const Substrate& sub, const ExperimentSpec& s) {
  sim::Engine engine;
  sim::Tracer tracer;
  const bool tracing = s.collect_trace || s.chrome_trace;
  if (tracing) tracer.enable();
  auto cluster = sub.build_cluster(engine, s, tracing ? &tracer : nullptr);
  // Threads only size the window worker pool; the domain cut (done inside
  // build_cluster from pdes_domain_target) fixed the schedule already.
  engine.set_threads(s.engine_threads);
  if (s.drop_prob > 0) {
    cluster->fabric().faults().install({.prob = s.drop_prob, .seed = s.seed});
  }
  cluster->fabric().faults().install(s.faults);
  auto placement = placement_of(s);

  RunResult out;
  out.spec = s;
  if (s.workload.enabled()) {
    out.ops_expected = static_cast<std::uint64_t>(s.workload.groups) *
                       static_cast<std::uint64_t>(s.workload.group_size) *
                       static_cast<std::uint64_t>(s.warmup + s.iters);
    load::WorkloadOutcome wo = load::run_workload(engine, *cluster, s);
    out.impl_name = wo.impl_name;
    core::RunSeries agg;
    agg.per_iteration = std::move(wo.latency);
    agg.iterations = agg.per_iteration.count();
    agg.mean = agg.per_iteration.mean();
    fill_latency(out, agg, engine);
    out.value_errors = wo.value_errors;
    out.group_stats = std::move(wo.groups);
    out.fairness = wo.fairness;
    out.flood_sends = wo.flood_sends;
    fill_engine(out, engine);
    out.ops_done = wo.ops_done;
    if (s.collect_trace) out.trace_csv = tracer.to_csv();
    if (s.chrome_trace) out.trace_json = tracer.to_chrome_json();
    if (tracing) out.trace_dropped = tracer.overwritten();
    return out;
  }
  out.ops_expected = static_cast<std::uint64_t>(s.nodes) *
                     static_cast<std::uint64_t>(s.warmup + s.iters);
  // Rank -> engine domain, resolved through the placement *before* it is
  // moved into the executor; the driver issues each rank's initial entry
  // inside its own domain so the whole protocol cascade stays there.
  core::RunPlan plan = run_plan(s);
  std::vector<int> rank_domain;
  if (cluster->fabric().domains() > 1) {
    rank_domain.reserve(placement.size());
    for (const int node : placement) {
      rank_domain.push_back(cluster->fabric().domain_of(net::NicAddr(node)));
    }
    plan.rank_domain = &rank_domain;
  }
  auto op = cluster->make_collective(s, std::move(placement));
  out.impl_name = std::string(op->name());
  const core::RunSeries series = core::run_consecutive(engine, *op, plan);
  fill_latency(out, series, engine);
  out.value_errors = series.value_errors;
  out.ops_done = out.ops_expected;  // the driver throws before reaching here otherwise
  fill_engine(out, engine);
  out.pdes_domains = cluster->fabric().domains();
  out.pdes_windows = engine.windows_run();
  if (engine.domains() > 1) {
    out.pdes_domain_events.reserve(static_cast<std::size_t>(engine.domains()));
    for (int d = 0; d < engine.domains(); ++d) {
      out.pdes_domain_events.push_back(engine.domain_events_fired(d));
    }
  }
  if (s.collect_trace) out.trace_csv = tracer.to_csv();
  if (s.chrome_trace) out.trace_json = tracer.to_chrome_json();
  if (tracing) out.trace_dropped = tracer.overwritten();
  return out;
}

}  // namespace

std::uint64_t RunResult::fingerprint() const {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  const auto fold = [&h](std::uint64_t v) { h = mix64(h ^ v); };
  fold(events_scheduled);
  fold(events_fired);
  fold(iterations);
  fold(static_cast<std::uint64_t>(mean_picos));
  fold(static_cast<std::uint64_t>(min_picos));
  fold(static_cast<std::uint64_t>(max_picos));
  fold(static_cast<std::uint64_t>(p99_picos));
  fold(packets_sent);
  fold(bytes_sent);
  fold(packets_dropped);
  fold(nacks);
  fold(retransmissions);
  fold(hw_probes);
  fold(hw_failed_probes);
  // Workload mode folds per-group tails too; a disabled workload leaves the
  // digest bit-identical to results that predate the subsystem.
  if (!group_stats.empty()) {
    fold(static_cast<std::uint64_t>(group_stats.size()));
    for (const load::GroupStats& g : group_stats) {
      fold(static_cast<std::uint64_t>(g.p99_picos));
      fold(g.ops);
      fold(g.backlog_peak);
    }
    fold(flood_sends);
  }
  return h;
}

RunResult run_experiment(const ExperimentSpec& spec) {
  if (const std::string err = validate(spec); !err.empty()) {
    throw std::invalid_argument(err);
  }
  const auto host_start = std::chrono::steady_clock::now();
  RunResult out = run_on(substrate_for(spec.network), spec);
  out.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start)
          .count();
  return out;
}

std::uint64_t seed_for(std::uint64_t base_seed, std::size_t index) {
  return mix64(base_seed + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(index) + 1));
}

std::string metrics_to_json(const std::vector<obs::MetricValue>& metrics) {
  obs::JsonValue obj = obs::JsonValue::make_object();
  for (const obs::MetricValue& m : metrics) {
    switch (m.kind) {
      case obs::MetricKind::kCounter:
        obj.set(m.name, obs::JsonValue::of(m.value));
        break;
      case obs::MetricKind::kGauge:
        obj.set(m.name, obs::JsonValue::of(m.gauge));
        break;
      case obs::MetricKind::kHistogram: {
        obs::JsonValue h = obs::JsonValue::make_object();
        h.set("count", obs::JsonValue::of(m.value));
        h.set("sum", obs::JsonValue::of(m.sum));
        obs::JsonValue buckets = obs::JsonValue::make_array();
        for (std::uint64_t b : m.buckets) buckets.array.push_back(obs::JsonValue::of(b));
        h.set("buckets", std::move(buckets));
        obj.set(m.name, std::move(h));
        break;
      }
    }
  }
  return obj.dump();
}

std::string to_json(const RunResult& r) {
  char buf[256];
  std::string out = "{";
  std::snprintf(buf, sizeof buf,
                "\"network\":\"%s\",\"nodes\":%d,\"op\":\"%s\",\"impl\":\"%s\","
                "\"algorithm\":\"%s\",\"iters\":%d,\"warmup\":%d,\"seed\":%llu,"
                "\"random_placement\":%s,\"drop_prob\":%g,",
                std::string(to_string(r.spec.network)).c_str(), r.spec.nodes,
                std::string(coll::to_string(r.spec.op)).c_str(),
                std::string(to_string(r.spec.impl)).c_str(),
                std::string(coll::to_string(r.spec.algorithm)).c_str(), r.spec.iters,
                r.spec.warmup, static_cast<unsigned long long>(r.spec.seed),
                r.spec.random_placement ? "true" : "false", r.spec.drop_prob);
  out += buf;
  // Algorithm-zoo knobs appear only when set, so pre-existing output stays
  // byte-identical.
  if (r.spec.radix != 0) {
    std::snprintf(buf, sizeof buf, "\"radix\":%d,", r.spec.radix);
    out += buf;
  }
  if (r.spec.overlap_us >= 0.0) {
    std::snprintf(buf, sizeof buf, "\"overlap_us\":%g,", r.spec.overlap_us);
    out += buf;
  }
  out += "\"impl_name\":\"" + r.impl_name + "\",";
  std::snprintf(buf, sizeof buf,
                "\"mean_us\":%.6f,\"min_us\":%.6f,\"max_us\":%.6f,\"p99_us\":%.6f,"
                "\"iterations\":%llu,",
                r.mean_us(), r.min_us(), r.max_us(), r.p99_us(),
                static_cast<unsigned long long>(r.iterations));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "\"events_scheduled\":%llu,\"events_fired\":%llu,"
                "\"packets_sent\":%llu,\"bytes_sent\":%llu,\"packets_dropped\":%llu,"
                "\"nacks\":%llu,\"retransmissions\":%llu,",
                static_cast<unsigned long long>(r.events_scheduled),
                static_cast<unsigned long long>(r.events_fired),
                static_cast<unsigned long long>(r.packets_sent),
                static_cast<unsigned long long>(r.bytes_sent),
                static_cast<unsigned long long>(r.packets_dropped),
                static_cast<unsigned long long>(r.nacks),
                static_cast<unsigned long long>(r.retransmissions));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "\"crc_dropped\":%llu,\"value_errors\":%llu,\"ops_done\":%llu,"
                "\"ops_expected\":%llu,",
                static_cast<unsigned long long>(r.crc_dropped),
                static_cast<unsigned long long>(r.value_errors),
                static_cast<unsigned long long>(r.ops_done),
                static_cast<unsigned long long>(r.ops_expected));
  out += buf;
  if (!r.group_stats.empty()) {
    std::int64_t worst_p99 = 0;
    for (const load::GroupStats& g : r.group_stats) {
      worst_p99 = std::max(worst_p99, g.p99_picos);
    }
    std::snprintf(buf, sizeof buf,
                  "\"workload_groups\":%zu,\"fairness\":%.6f,\"flood_sends\":%llu,"
                  "\"worst_group_p99_us\":%.6f,",
                  r.group_stats.size(), r.fairness,
                  static_cast<unsigned long long>(r.flood_sends),
                  static_cast<double>(worst_p99) * 1e-6);
    out += buf;
  }
  out += "\"metrics\":" + metrics_to_json(r.metrics) + ",";
  // PDES shape (observability only; absent on classic sequential runs so
  // their JSON stays byte-identical to pre-PDES output).
  if (r.spec.engine_threads > 1 || r.pdes_domains > 1) {
    std::snprintf(buf, sizeof buf,
                  "\"engine_threads\":%d,\"pdes_domains\":%d,\"pdes_windows\":%llu,",
                  r.spec.engine_threads, r.pdes_domains,
                  static_cast<unsigned long long>(r.pdes_windows));
    out += buf;
    out += "\"pdes_domain_events\":[";
    for (std::size_t d = 0; d < r.pdes_domain_events.size(); ++d) {
      if (d > 0) out += ',';
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(r.pdes_domain_events[d]));
      out += buf;
    }
    out += "],";
  }
  // Host-time observability fields; excluded from the fingerprint.
  std::snprintf(buf, sizeof buf, "\"host_seconds\":%.6f,\"events_per_sec\":%.0f,",
                r.host_seconds, r.events_per_sec());
  out += buf;
  std::snprintf(buf, sizeof buf, "\"fingerprint\":\"%016llx\"}",
                static_cast<unsigned long long>(r.fingerprint()));
  out += buf;
  return out;
}

}  // namespace qmb::run
