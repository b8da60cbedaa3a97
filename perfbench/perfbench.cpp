// perfbench: the repository benchmark. Runs one named workload of
// simulation points, checks every point's outputs, and prints simulated
// (exact, deterministic) and host (wall-clock) metrics.
//
//   perfbench --workload fig-grid|scale|tenancy-loss --seed N --seconds S
//             --trace 0|1 [--spans PATH]
//
// A run starts with a reference pass through run::run_experiment: the
// oracle whose fingerprints every later pass must reproduce, and the warm-up
// that fills caches before anything is timed. Timed passes then repeat
// until --seconds elapse, after one untimed warm-up pass. They drive each
// point through the layers' public calls one at a time
// (Substrate::build_cluster, make_barrier or make_collective, the run
// driver, then reading the engine's counters), so set-up and drive time are
// measured at those boundaries. Host times are scaled by the host speed a
// fixed probe loop measures around each point (see SpeedProbe) and are
// reported as sums over points of per-point medians over the passes;
// simulated metrics come from the reference pass.
//
// --trace 1 alternates untraced and traced passes. Traced passes record a
// span around each of those calls, run the two calibration loops and the
// model fit under spans of their own, and the run reports per-layer
// metrics, a self-time table and the tracing overhead. The last line of
// stdout is one JSON object with the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/collectives.hpp"
#include "load/runner.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "run/substrate.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace {

using namespace qmb;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() { return std::chrono::duration<double>(Clock::now() - kEpoch).count(); }

// ---------------------------------------------------------------- spans --

struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into SpanLog::spans, -1 for a root
  int point = -1;   // index into the workload's points, -1 for none
  int pass = 0;
};

/// In-memory span recorder. Disabled, a Scope only measures its duration.
class SpanLog {
 public:
  bool enabled = false;
  int pass = 0;
  std::vector<Span> spans;

  /// Times one call; records a span (child of the innermost open scope)
  /// while the log is enabled. stop() returns the duration in seconds.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, int point) : log_(log), start_(now_s()) {
      if (log_.enabled) {
        id_ = static_cast<int>(log_.spans.size());
        log_.spans.push_back({name, start_, start_, log_.open_, point, log_.pass});
        log_.open_ = id_;
      }
    }
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    double stop() {
      if (stopped_ < 0.0) {
        stopped_ = now_s() - start_;
        if (id_ >= 0) {
          Span& s = log_.spans[static_cast<std::size_t>(id_)];
          s.end = start_ + stopped_;
          log_.open_ = s.parent;
        }
      }
      return stopped_;
    }

   private:
    SpanLog& log_;
    double start_;
    double stopped_ = -1.0;
    int id_ = -1;
  };

 private:
  int open_ = -1;
};

// --------------------------------------------------------------- points --

/// One point driven layer by layer, with the host time of each call.
struct PointRun {
  run::RunResult result;
  double build_s = 0.0;
  double make_s = 0.0;
  double drive_s = 0.0;
  std::string error;  // empty when the point ran
};

void fill_latency(run::RunResult& r, const sim::LatencySeries& lat) {
  r.iterations = lat.count();
  r.mean_picos = lat.mean().picos();
  r.min_picos = lat.min().picos();
  r.max_picos = lat.max().picos();
  r.p99_picos = lat.percentile(99).picos();
}

/// Reads the engine's counters into the RunResult fields the fingerprint
/// digests, under the names run_experiment reads them from.
void collect(run::RunResult& r, const sim::Engine& engine, const net::Fabric& fabric) {
  r.events_scheduled = engine.events_scheduled();
  r.events_fired = engine.events_fired();
  const obs::MetricRegistry& reg = engine.metrics();
  r.packets_sent = reg.total("fabric.packets_sent");
  r.bytes_sent = reg.total("fabric.bytes_sent");
  r.packets_dropped = reg.total("fabric.packets_dropped");
  r.nacks = reg.total("coll.nacks_sent") + reg.total("ib.naks_sent");
  r.retransmissions = reg.total("coll.retransmissions") + reg.total("mcp.retransmissions") +
                      reg.total("ib.retransmissions");
  r.hw_probes = reg.total("hw.probes_sent");
  r.hw_failed_probes = reg.total("hw.failed_probes");
  r.crc_dropped = reg.total("nic.crc_dropped");
  r.metrics = reg.snapshot();
  r.pdes_domains = fabric.domains();
  r.pdes_windows = engine.windows_run();
  if (engine.domains() > 1) {
    for (int d = 0; d < engine.domains(); ++d) {
      r.pdes_domain_events.push_back(engine.domain_events_fired(d));
    }
  }
}

/// Consecutive value collectives, driven the way an application would:
/// rank r contributes r + 1 and re-enters as soon as its result arrives,
/// and every result is checked against the op's exact expected value.
/// Iteration latency is completion-to-completion of the whole group, as in
/// core::run_consecutive_barriers. Sequential engines only (the collective
/// points never shard).
sim::LatencySeries drive_collective(sim::Engine& engine, core::Collective& op,
                                    coll::OpKind kind, int warmup, int iters,
                                    sim::SimDuration horizon, std::uint64_t& value_errors) {
  const int n = op.size();
  const int total = warmup + iters;
  const std::int64_t expected = core::expected_collective_result(kind, n);
  std::vector<int> done(static_cast<std::size_t>(n), 0);
  std::vector<sim::SimTime> completed(static_cast<std::size_t>(total), sim::SimTime::zero());
  std::function<void(int)> enter = [&](int rank) {
    const int it = done[static_cast<std::size_t>(rank)];
    if (it >= total) return;
    op.enter(rank, rank + 1, [&, rank, it](std::int64_t result) {
      if (result != expected) ++value_errors;
      done[static_cast<std::size_t>(rank)] = it + 1;
      sim::SimTime& c = completed[static_cast<std::size_t>(it)];
      c = std::max(c, engine.now());
      engine.schedule(sim::SimDuration::zero(), [&enter, rank] { enter(rank); });
    });
  };
  for (int r = 0; r < n; ++r) enter(r);
  engine.run_until(engine.now() + horizon);
  if (std::any_of(done.begin(), done.end(), [total](int d) { return d != total; })) {
    throw std::runtime_error("collective run did not complete (deadlock in protocol?)");
  }
  sim::LatencySeries lat;
  sim::SimTime prev = sim::SimTime::zero();
  for (int i = 0; i < total; ++i) {
    if (i >= warmup) lat.add(completed[static_cast<std::size_t>(i)] - prev);
    prev = completed[static_cast<std::size_t>(i)];
  }
  return lat;
}

/// Runs one point through the layers' public calls, one span per call.
/// The operation order matches run_experiment's, so the fingerprint must
/// match the reference pass exactly.
PointRun drive_point(const Point& p, int index, SpanLog& log) {
  PointRun out;
  const run::ExperimentSpec& s = p.spec;
  run::RunResult& r = out.result;
  r.spec = s;
  SpanLog::Scope point_span(log, "point", index);
  try {
    sim::Engine engine;
    SpanLog::Scope build(log, "run.build_cluster", index);
    const std::unique_ptr<run::SubstrateCluster> cluster =
        run::substrate_for(s.network).build_cluster(engine, s, nullptr);
    engine.set_threads(s.engine_threads);
    if (s.drop_prob > 0) {
      cluster->fabric().faults().add_random_rule(std::nullopt, std::nullopt, s.drop_prob,
                                                 s.seed);
    }
    out.build_s = build.stop();
    const sim::SimDuration horizon = sim::milliseconds(s.horizon_ms);
    if (s.workload.enabled()) {
      // Workload mode builds its per-group executors inside the driver.
      r.ops_expected = static_cast<std::uint64_t>(s.workload.groups) *
                       static_cast<std::uint64_t>(s.workload.group_size) *
                       static_cast<std::uint64_t>(s.warmup + s.iters);
      SpanLog::Scope drive(log, "load.drive", index);
      load::WorkloadOutcome wo = load::run_workload(engine, *cluster, s);
      out.drive_s = drive.stop();
      fill_latency(r, wo.latency);
      r.value_errors = wo.value_errors;
      r.group_stats = std::move(wo.groups);
      r.fairness = wo.fairness;
      r.flood_sends = wo.flood_sends;
      r.ops_done = wo.ops_done;
    } else {
      r.ops_expected =
          static_cast<std::uint64_t>(s.nodes) * static_cast<std::uint64_t>(s.warmup + s.iters);
      std::vector<int> placement = core::identity_placement(s.nodes);
      std::vector<int> rank_domain;
      if (cluster->fabric().domains() > 1) {
        for (const int node : placement) {
          rank_domain.push_back(cluster->fabric().domain_of(net::NicAddr(node)));
        }
      }
      if (s.op == coll::OpKind::kBarrier) {
        SpanLog::Scope make(log, "run.make_executor", index);
        const std::unique_ptr<core::Barrier> barrier =
            cluster->make_barrier(s, std::move(placement));
        out.make_s = make.stop();
        SpanLog::Scope drive(log, "core.drive", index);
        const core::BarrierRunResult br = core::run_consecutive_barriers(
            engine, *barrier, s.warmup, s.iters, sim::SimDuration::zero(), 0, horizon,
            rank_domain.empty() ? nullptr : &rank_domain);
        out.drive_s = drive.stop();
        fill_latency(r, br.per_iteration);
      } else {
        SpanLog::Scope make(log, "run.make_executor", index);
        const std::unique_ptr<core::Collective> op =
            cluster->make_collective(s, std::move(placement));
        out.make_s = make.stop();
        SpanLog::Scope drive(log, "core.drive", index);
        const sim::LatencySeries lat =
            drive_collective(engine, *op, s.op, s.warmup, s.iters, horizon, r.value_errors);
        out.drive_s = drive.stop();
        fill_latency(r, lat);
      }
      r.ops_done = r.ops_expected;  // the drivers throw before reaching here otherwise
    }
    SpanLog::Scope obs_span(log, "obs.collect", index);
    collect(r, engine, cluster->fabric());
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// Why a result is wrong, or empty when it is right.
std::string check(const run::RunResult& r) {
  if (r.ops_done != r.ops_expected) {
    return "ops_done " + std::to_string(r.ops_done) + " != ops_expected " +
           std::to_string(r.ops_expected);
  }
  if (r.value_errors > 0) return std::to_string(r.value_errors) + " value errors";
  if (r.iterations == 0) return "no timed iterations";
  return {};
}

// ---------------------------------------------------------- calibration --

/// Host ns per event of a bare engine: 64 self-rescheduling chains with
/// mixed delays, so the queue holds some depth.
double calibrate_engine(SpanLog& log) {
  SpanLog::Scope span(log, "sim.calibrate", -1);
  sim::Engine engine;
  std::uint64_t left = 1u << 20;
  std::function<void()> tick = [&] {
    if (left == 0) return;
    --left;
    engine.schedule(sim::nanoseconds(static_cast<std::int64_t>(1 + left % 7)),
                    [&tick] { tick(); });
  };
  for (int c = 0; c < 64; ++c) {
    engine.schedule(sim::nanoseconds(static_cast<std::int64_t>(c)), [&tick] { tick(); });
  }
  const double t0 = now_s();
  engine.run();
  return (now_s() - t0) * 1e9 / static_cast<double>(engine.events_fired());
}

struct PingBody {
  std::uint64_t round = 0;
};

/// Host ns per packet of a saturated 16-NIC crossbar driven only through
/// net::Fabric::send: every delivery re-injects a packet at the next
/// destination, so the fabric never idles.
double calibrate_fabric(SpanLog& log) {
  using namespace qmb::sim::literals;
  SpanLog::Scope span(log, "net.calibrate", -1);
  constexpr int kNics = 16;
  sim::Engine engine;
  net::Fabric fabric(engine, std::make_unique<net::SingleCrossbar>(kNics),
                     net::FabricParams{net::LinkParams{300_ns, 2.0e9},
                                       net::SwitchParams{300_ns}});
  std::vector<int> remaining(kNics, 16384);
  for (int i = 0; i < kNics; ++i) {
    fabric.attach([&fabric, &remaining, i](net::Packet&& p) {
      int& left = remaining[static_cast<std::size_t>(i)];
      if (left == 0) return;
      --left;
      const auto* ping = net::body_as<PingBody>(p);
      const std::uint64_t round = ping != nullptr ? ping->round + 1 : 0;
      int dst = static_cast<int>((static_cast<std::uint64_t>(i) + round) % kNics);
      if (dst == i) dst = (dst + 1) % kNics;
      fabric.send(net::Packet(net::NicAddr(i), net::NicAddr(dst), 64, PingBody{round}));
    });
  }
  for (int i = 0; i < kNics; ++i) {
    fabric.send(net::Packet(net::NicAddr(i), net::NicAddr((i + 1) % kNics), 64, PingBody{}));
  }
  const double t0 = now_s();
  engine.run();
  return (now_s() - t0) * 1e9 / static_cast<double>(fabric.packets_delivered());
}

// ----------------------------------------------------------- host speed --

/// Measures how fast the host runs right now, relative to a reference host.
///
/// On a shared host the same pass takes up to ~40 % longer from one minute
/// to the next, in CPU time as much as in wall time: neighbours contend for
/// the core, its caches and memory, not for the scheduler. So each timed
/// point is followed by a fixed probe loop, and the point's host times are
/// scaled by the mean speed of the probes just before and just after it.
/// The probe is the benchmark's own code (an event-queue-like binary heap
/// beside random updates of a 1 MiB table), so a change to the simulator
/// cannot move it. On a shared 4-core x86 host the quartile spread of the
/// unscaled pass time over five seeds was 0.10-0.40 of its median; that of
/// the scaled wall_s over ten seeds was 0.03-0.05.
class SpeedProbe {
 public:
  /// Probe slices per second on the reference host: one slice takes 1 ms
  /// there. The reported host times are seconds on that host.
  static constexpr double kReferenceSlicesPerSecond = 1000.0;

  SpeedProbe() : table_(kTableWords, 0) {
    for (int i = 0; i < kHeapSize; ++i) heap_.push_back(next() >> 24);
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  /// Runs whole slices for at least `budget_s` (one at least) and returns
  /// the host's speed relative to the reference host over the work just
  /// timed: the mean of this probe and the one before, which bracket it.
  double speed(double budget_s) {
    int slices = 0;
    const double t0 = now_s();
    double elapsed = 0.0;
    do {
      slice();
      ++slices;
      elapsed = now_s() - t0;
    } while (elapsed < budget_s);
    const double now = static_cast<double>(slices) / elapsed / kReferenceSlicesPerSecond;
    const double before = last_ > 0.0 ? last_ : now;
    last_ = now;
    return (before + now) / 2.0;
  }

 private:
  static constexpr int kHeapSize = 4096;
  static constexpr std::size_t kTableWords = std::size_t{1} << 17;  // 1 MiB
  static constexpr int kOpsPerSlice = 12000;

  std::uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  void slice() {
    for (int i = 0; i < kOpsPerSlice; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const std::uint64_t r = next();
      heap_.back() += 1 + (r >> 48);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      table_[static_cast<std::size_t>(r) & (kTableWords - 1)] += heap_.front();
    }
  }

  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
  double last_ = 0.0;  // speed the previous probe measured
  std::vector<std::uint64_t> heap_;
  std::vector<std::uint64_t> table_;
};

// --------------------------------------------------------------- passes --

/// After each point the probe runs for this share of the point's time. A
/// share of 0.2 spread wider: the probe then evicts enough of the
/// simulator's cache to slow the next point.
constexpr double kProbeShare = 0.1;

/// Host times of one point in one pass, in reference-host seconds: the
/// measured times scaled by the host speed measured right after the point.
struct PointTime {
  double wall_s = 0.0;  // the whole point: set-up, drive, checks, teardown
  double build_s = 0.0;
  double make_s = 0.0;
  double drive_s = 0.0;
};

struct Pass {
  std::vector<PointTime> points;
  double raw_wall_s = 0.0;           // host seconds as measured, unscaled
  double engine_ns_per_event = 0.0;  // traced passes only
  double fabric_ns_per_packet = 0.0;

  double total(double PointTime::*field) const {
    double sum = 0.0;
    for (const PointTime& t : points) sum += t.*field;
    return sum;
  }
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Pass run_pass(const std::vector<Point>& points, const std::vector<run::RunResult>& ref,
              SpanLog& log, Tally& tally, SpeedProbe& probe) {
  Pass pass;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double t0 = now_s();
    PointRun pr = drive_point(points[i], static_cast<int>(i), log);
    ++tally.attempted;
    std::string err = pr.error.empty() ? check(pr.result) : pr.error;
    if (err.empty() && pr.result.fingerprint() != ref[i].fingerprint()) {
      err = "fingerprint differs from the run_experiment reference";
    }
    if (!err.empty()) {
      ++tally.failed;
      std::printf("FAIL %s (pass %d): %s\n", points[i].key.c_str(), log.pass, err.c_str());
    }
    const double point_s = now_s() - t0;
    const double speed = probe.speed(kProbeShare * point_s);
    pass.raw_wall_s += point_s;
    pass.points.push_back(
        {point_s * speed, pr.build_s * speed, pr.make_s * speed, pr.drive_s * speed});
  }
  return pass;
}

// -------------------------------------------------------------- metrics --

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

template <typename F>
double median_of(const std::vector<Pass>& passes, F f) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const Pass& p : passes) v.push_back(f(p));
  return median(v);
}

/// Sum over the points that `keep` selects of each point's median time over
/// the passes. A burst of contention that hits one point in one pass moves
/// that point's median at most by one rank, not the whole pass.
template <typename Keep>
double sum_of_medians(const std::vector<Pass>& passes, double PointTime::*field, Keep keep) {
  double sum = 0.0;
  const std::size_t n = passes.empty() ? 0 : passes.front().points.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!keep(i)) continue;
    sum += median_of(passes, [&](const Pass& p) { return p.points[i].*field; });
  }
  return sum;
}

double sum_of_medians(const std::vector<Pass>& passes, double PointTime::*field) {
  return sum_of_medians(passes, field, [](std::size_t) { return true; });
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t total(const std::vector<run::RunResult>& results, const char* name) {
  std::uint64_t sum = 0;
  for (const run::RunResult& r : results) {
    for (const obs::MetricValue& m : r.metrics) {
      if (m.name == name) sum += m.value;
    }
  }
  return sum;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Baseline latency over NIC latency for every baseline point (host,
/// direct, gsync) whose NIC twin is in the workload.
double nic_speedup(const std::vector<Point>& points, const std::vector<run::RunResult>& ref) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < points.size(); ++i) index[points[i].key] = i;
  std::vector<double> ratios;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const run::Impl impl = points[i].spec.impl;
    if (impl != run::Impl::kHost && impl != run::Impl::kDirect && impl != run::Impl::kGsync) {
      continue;
    }
    run::ExperimentSpec twin = points[i].spec;
    twin.impl = run::Impl::kNic;
    const auto it = index.find(key_of(twin) + points[i].tag);
    if (it != index.end()) ratios.push_back(ref[i].mean_us() / ref[it->second].mean_us());
  }
  return geomean(ratios);
}

/// Peak resident memory of this process image. getrusage's ru_maxrss is
/// not used: it keeps the high-water mark across execve, so it would count
/// the launcher's memory when that is larger than the workload's.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<Metric> end_to_end(const std::vector<Point>& points,
                               const std::vector<run::RunResult>& ref,
                               const std::vector<Anchor>& anchor_list,
                               const std::vector<Pass>& passes) {
  std::vector<double> op_us, p99_us;
  for (const run::RunResult& r : ref) {
    op_us.push_back(r.mean_us());
    p99_us.push_back(r.p99_us());
  }
  double anchor_err = 0.0;
  for (const Anchor& a : anchor_list) anchor_err = std::max(anchor_err, a.err_pct());
  std::uint64_t events = 0;
  for (const run::RunResult& r : ref) events += r.events_fired;
  return {
      {"wall_s", sum_of_medians(passes, &PointTime::wall_s), "s"},
      {"setup_s",
       sum_of_medians(passes, &PointTime::build_s) + sum_of_medians(passes, &PointTime::make_s),
       "s"},
      {"events_per_sec", ratio(static_cast<double>(events),
                               sum_of_medians(passes, &PointTime::drive_s)),
       "1/s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"sim_op_us", geomean(op_us), "us"},
      {"sim_p99_us", geomean(p99_us), "us"},
      {"nic_speedup", nic_speedup(points, ref), "ratio"},
      {"anchor_err_pct", anchor_err, "%"},
  };
}

/// Self time per span name, averaged over traced passes: each span's
/// duration minus the durations of its direct children.
struct SelfRow {
  int count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

std::map<std::string, SelfRow> self_times(const SpanLog& log, int traced_passes) {
  std::vector<double> child_s(log.spans.size(), 0.0);
  for (const Span& s : log.spans) {
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, SelfRow> rows;
  for (std::size_t i = 0; i < log.spans.size(); ++i) {
    const Span& s = log.spans[i];
    SelfRow& row = rows[s.name];
    ++row.count;
    row.total_s += s.end - s.start;
    row.self_s += s.end - s.start - child_s[i];
  }
  const double n = std::max(1, traced_passes);
  for (auto& [name, row] : rows) {
    row.count = static_cast<int>(row.count / n);
    row.total_s /= n;
    row.self_s /= n;
  }
  return rows;
}

/// Host seconds per traced pass spent on the points of each substrate
/// family (the sum of their root spans).
std::map<std::string, double> substrate_seconds(const SpanLog& log,
                                                const std::vector<Point>& points,
                                                int traced_passes) {
  std::map<std::string, double> out{{"myrinet", 0.0}, {"quadrics", 0.0}, {"ib", 0.0}};
  for (const Span& s : log.spans) {
    if (s.parent >= 0 || s.point < 0) continue;
    const run::Network net = points[static_cast<std::size_t>(s.point)].spec.network;
    const char* family = net == run::Network::kQuadrics     ? "quadrics"
                         : net == run::Network::kInfiniBand ? "ib"
                                                            : "myrinet";
    out[family] += (s.end - s.start) / std::max(1, traced_passes);
  }
  return out;
}

std::vector<Metric> per_layer(const std::vector<Point>& points,
                              const std::vector<run::RunResult>& ref,
                              const std::vector<Pass>& untraced,
                              const std::vector<Pass>& traced, const SpanLog& log) {
  std::uint64_t scheduled = 0, fired = 0, windows = 0, pdes_events = 0, ops = 0;
  std::uint64_t backlog_peak = 0;
  double imbalance = 0.0, fairness = 0.0, group_p99_max = 0.0;
  bool any_workload = false;
  for (const run::RunResult& r : ref) {
    scheduled += r.events_scheduled;
    fired += r.events_fired;
    ops += r.ops_done;
    if (!r.pdes_domain_events.empty()) {
      windows += r.pdes_windows;
      pdes_events += r.events_fired;
      const auto& ev = r.pdes_domain_events;
      const double mean = static_cast<double>(r.events_fired) / static_cast<double>(ev.size());
      imbalance = std::max(
          imbalance, ratio(static_cast<double>(*std::max_element(ev.begin(), ev.end())), mean));
    }
    if (!r.group_stats.empty()) {
      fairness = any_workload ? std::min(fairness, r.fairness) : r.fairness;
      any_workload = true;
      for (const load::GroupStats& g : r.group_stats) {
        backlog_peak = std::max(backlog_peak, g.backlog_peak);
        group_p99_max = std::max(group_p99_max, static_cast<double>(g.p99_picos) * 1e-6);
      }
    }
  }
  const auto count = [&](const char* name) { return static_cast<double>(total(ref, name)); };
  const auto med = [&](double Pass::*field) {
    return median_of(traced, [field](const Pass& p) { return p.*field; });
  };
  const auto is_load = [&](std::size_t i) { return points[i].spec.workload.enabled(); };
  const auto is_core = [&](std::size_t i) { return !is_load(i); };
  double core_events = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (is_core(i)) core_events += static_cast<double>(ref[i].events_fired);
  }
  const double myri_sends = count("mcp.data_packets_sent") + count("coll.msgs_sent");
  const double myri_retx = count("mcp.retransmissions") + count("coll.retransmissions");
  const double core_drive = sum_of_medians(traced, &PointTime::drive_s, is_core);
  const model::BarrierModel fit_m = fit_model(run::Network::kMyrinetXP, points, ref);
  const model::BarrierModel fit_q = fit_model(run::Network::kQuadrics, points, ref);

  std::vector<Metric> m = {
      {"sim.events_fired", static_cast<double>(fired), "count"},
      {"sim.cancelled_frac", 1.0 - ratio(static_cast<double>(fired), scheduled), "ratio"},
      {"sim.engine_ns_per_event", med(&Pass::engine_ns_per_event), "ns"},
      {"sim.pdes_windows", static_cast<double>(windows), "count"},
      {"sim.pdes_events_per_window", ratio(static_cast<double>(pdes_events), windows), "count"},
      {"sim.pdes_domain_imbalance", imbalance, "ratio"},
      {"net.packets_sent", count("fabric.packets_sent"), "count"},
      {"net.bytes_sent", count("fabric.bytes_sent"), "count"},
      {"net.packets_dropped", count("fabric.packets_dropped"), "count"},
      {"net.fabric_ns_per_packet", med(&Pass::fabric_ns_per_packet), "ns"},
      {"myrinet.coll_msgs_sent", count("coll.msgs_sent"), "count"},
      {"myrinet.coll_nacks_sent", count("coll.nacks_sent"), "count"},
      {"myrinet.mcp_data_packets_sent", count("mcp.data_packets_sent"), "count"},
      {"myrinet.mcp_retransmissions", count("mcp.retransmissions"), "count"},
      {"myrinet.mcp_buffer_stalls", count("mcp.buffer_stalls"), "count"},
      {"myrinet.retx_ratio", ratio(myri_retx, myri_sends), "ratio"},
      {"quadrics.rdma_issued", count("elan.rdma_issued"), "count"},
      {"quadrics.early_buffered", count("elan.early_buffered"), "count"},
      {"quadrics.hw_failed_probe_frac",
       ratio(count("hw.failed_probes"), count("hw.probes_sent")), "ratio"},
      {"ib.writes_posted", count("ib.writes_posted"), "count"},
      {"ib.naks_sent", count("ib.naks_sent"), "count"},
      {"ib.retransmissions", count("ib.retransmissions"), "count"},
      {"ib.rto_fires", count("ib.rto_fires"), "count"},
      {"ib.retx_ratio", ratio(count("ib.retransmissions"), count("ib.writes_posted")), "ratio"},
      {"core.drive_s", core_drive, "s"},
      {"core.host_ns_per_event", ratio(core_drive * 1e9, core_events), "ns"},
      {"core.ops_completed", static_cast<double>(ops), "count"},
      {"core.early_buffered",
       count("coll.early_buffered") + count("elan.early_buffered") + count("ib.early_buffered"),
       "count"},
      {"load.drive_s", sum_of_medians(traced, &PointTime::drive_s, is_load), "s"},
      {"load.flood_sends", count("load.flood_sends"), "count"},
      {"load.backlog_peak", static_cast<double>(backlog_peak), "count"},
      {"load.fairness", fairness, "ratio"},
      {"load.group_p99_us_max", group_p99_max, "us"},
      {"run.build_cluster_s", sum_of_medians(traced, &PointTime::build_s), "s"},
      {"run.make_executor_s", sum_of_medians(traced, &PointTime::make_s), "s"},
      {"model.tinit_us", fit_m.t_init_us, "us"},
      {"model.ttrig_us", fit_m.t_trig_us, "us"},
      {"model.quadrics_tinit_us", fit_q.t_init_us, "us"},
      {"model.quadrics_ttrig_us", fit_q.t_trig_us, "us"},
  };
  // The leaf spans' self time is their duration, reported above; these are
  // the remaining spans: the point root (benchmark loop and teardown),
  // counter collection, the model fit and the calibration loops.
  const int n = static_cast<int>(traced.size());
  const std::map<std::string, SelfRow> rows = self_times(log, n);
  for (const char* name : {"point", "obs.collect", "model.fit", "sim.calibrate",
                           "net.calibrate"}) {
    const auto it = rows.find(name);
    m.push_back({std::string("self.") + name + "_s", it == rows.end() ? 0.0 : it->second.self_s,
                 "s"});
  }
  for (const auto& [family, secs] : substrate_seconds(log, points, n)) {
    m.push_back({"host." + family + "_s", secs, "s"});
  }
  m.push_back({"host.speed",
               median_of(untraced,
                         [](const Pass& p) {
                           return ratio(p.total(&PointTime::wall_s), p.raw_wall_s);
                         }),
               "ratio"});
  m.push_back({"trace.overhead_s",
               sum_of_medians(traced, &PointTime::wall_s) -
                   sum_of_medians(untraced, &PointTime::wall_s),
               "s"});
  return m;
}

// --------------------------------------------------------------- output --

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_point(const Point& p, const run::RunResult& r) {
  std::printf("point %s fp=%016llx iters=%llu mean_ps=%lld p99_ps=%lld max_ps=%lld "
              "events=%llu packets=%llu\n",
              p.key.c_str(), static_cast<unsigned long long>(r.fingerprint()),
              static_cast<unsigned long long>(r.iterations),
              static_cast<long long>(r.mean_picos), static_cast<long long>(r.p99_picos),
              static_cast<long long>(r.max_picos),
              static_cast<unsigned long long>(r.events_fired),
              static_cast<unsigned long long>(r.packets_sent));
}

void print_self_table(const SpanLog& log, int traced_passes) {
  std::printf("self-time per traced pass (self = span minus its child spans):\n");
  std::printf("self %-20s %7s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, row] : self_times(log, traced_passes)) {
    std::printf("self %-20s %7d %12.6f %12.6f\n", name.c_str(), row.count, row.total_s,
                row.self_s);
  }
}

bool write_spans(const std::string& path, const SpanLog& log, const std::vector<Point>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : log.spans) {
    const std::string key = s.point >= 0 ? points[static_cast<std::size_t>(s.point)].key : "";
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,"
                 "\"point\":\"%s\",\"pass\":%d}\n",
                 s.name, s.start, s.end, s.parent, key.c_str(), s.pass);
  }
  return std::fclose(f) == 0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fig-grid|scale|tenancy-loss --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (!(o.seconds > 0.0)) usage(argv[0]);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage(argv[0]);
      o.trace = v == "1";
    } else if (a == "--spans") {
      o.spans = v;
    } else {
      usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') usage(argv[0]);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const std::vector<Point> points = make_points(o.workload, o.seed);
  if (points.empty()) usage(argv[0]);
  std::printf("workload %s seed %llu points %zu trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), points.size(), o.trace ? 1 : 0);

  // Reference pass: the oracle, and the warm-up.
  Tally tally;
  std::vector<run::RunResult> ref(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ++tally.attempted;
    std::string err;
    try {
      ref[i] = run::run_experiment(points[i].spec);
      err = check(ref[i]);
    } catch (const std::exception& e) {
      err = e.what();
    }
    if (!err.empty()) {
      ++tally.failed;
      std::printf("FAIL %s (reference): %s\n", points[i].key.c_str(), err.c_str());
    }
    print_point(points[i], ref[i]);
  }

  // Timed passes; with --trace 1 every second pass is traced. Pass 0 is a
  // warm-up whose times are not kept: the first pass through the layers'
  // calls runs ~15 % slower than the rest, against the probe as much as in
  // raw host time.
  SpanLog log;
  SpeedProbe probe;
  std::vector<Pass> untraced, traced;
  const double start = now_s();
  for (bool warmup = true;
       warmup || untraced.empty() || (o.trace && traced.empty()) || now_s() - start < o.seconds;
       warmup = false) {
    log.enabled = !warmup && o.trace && untraced.size() > traced.size();
    log.pass = warmup ? 0 : static_cast<int>(untraced.size() + traced.size()) + 1;
    Pass pass = run_pass(points, ref, log, tally, probe);
    if (warmup) {
      std::printf("host pass 0 warm-up raw_wall_s=%.6f\n", pass.raw_wall_s);
      continue;
    }
    if (log.enabled) {
      pass.engine_ns_per_event = calibrate_engine(log);
      pass.fabric_ns_per_packet = calibrate_fabric(log);
      SpanLog::Scope fit(log, "model.fit", -1);
      (void)fit_model(run::Network::kMyrinetXP, points, ref);
      (void)fit_model(run::Network::kQuadrics, points, ref);
    }
    std::printf("host pass %d traced=%d wall_s=%.6f raw_wall_s=%.6f setup_s=%.6f\n", log.pass,
                log.enabled ? 1 : 0, pass.total(&PointTime::wall_s), pass.raw_wall_s,
                pass.total(&PointTime::build_s) + pass.total(&PointTime::make_s));
    (log.enabled ? traced : untraced).push_back(pass);
  }

  const std::vector<Anchor> anchor_list = anchors(o.workload, points, ref);
  for (const Anchor& a : anchor_list) {
    std::printf("anchor.%s paper=%.4f ours=%.17g err_pct=%.17g\n", a.name.c_str(), a.paper,
                a.ours, a.err_pct());
  }
  std::printf("check attempted=%llu failed=%llu fail_frac=%.6f\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted)));

  std::vector<Metric> metrics;
  if (o.trace) {
    print_self_table(log, static_cast<int>(traced.size()));
    metrics = per_layer(points, ref, untraced, traced, log);
    if (!o.spans.empty() && !write_spans(o.spans, log, points)) {
      std::fprintf(stderr, "cannot write spans to %s\n", o.spans.c_str());
      return 1;
    }
  } else {
    metrics = end_to_end(points, ref, anchor_list, untraced);
  }
  for (const Metric& m : metrics) {
    const bool sim = m.name.rfind("sim_", 0) == 0 || m.name == "nic_speedup" ||
                     m.name == "anchor_err_pct";
    std::printf("%s %s %.17g %s\n", o.trace ? "layer" : (sim ? "sim" : "host"),
                m.name.c_str(), m.value, m.unit);
  }

  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return tally.failed == 0 ? 0 : 1;
}
