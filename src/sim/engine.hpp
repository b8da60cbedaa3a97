// The discrete-event simulation engine.
//
// Sequential by default and deterministic: components schedule callbacks at
// future simulated instants; run() drains the event queue in
// (time, insertion) order. All simulated hardware (NICs, links, buses, host
// CPUs) is built as objects holding a reference to one Engine.
//
// Conservative parallel mode (PDES): enable_domains(K, lookahead) shards
// the engine into K domains, each with a private event queue and clock.
// Every simulated component belongs to exactly one domain — it is built
// under a DomainScope, all of its events execute on that domain, and its
// schedule()/now() calls route to the domain's queue/clock through the
// thread-local current-domain tag (sim/domain.hpp), so component code is
// identical in both modes. Domains advance in synchronized time windows of
// one lookahead: within a window each domain drains its own queue (in
// parallel across a worker pool of set_threads() threads), then a single
// coordinator runs the window hook (the Fabric drains deferred cross-domain
// packet work there, injecting deliveries via schedule_at_on) before the
// next window opens at the new global minimum event time.
//
// Determinism by construction: the domain partition and window sequence
// depend only on the simulation itself (never on the thread count — threads
// only size the worker pool), per-domain execution is sequential, and the
// window hook runs single-threaded over deterministically ordered deferred
// work. The same spec therefore produces bit-identical results at any
// thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/domain.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace qmb::sim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time: the executing domain's clock inside a window,
  /// the engine clock otherwise. Monotonically non-decreasing per domain.
  [[nodiscard]] SimTime now() const {
    if (shards_.empty()) return now_;
    const Shard* s = static_cast<const Shard*>(detail::t_shard);
    return s ? s->now : now_;
  }

  /// Schedules `cb` to run `delay` from now, on the calling domain's queue
  /// (the engine queue when sequential). Negative delays are a bug. Every
  /// hop down to EventQueue::push takes the callback by rvalue reference,
  /// so it is moved exactly once on the way in.
  EventId schedule(SimDuration delay, EventCallback&& cb) {
    if (delay < SimDuration::zero()) throw std::invalid_argument("negative delay");
    if (shards_.empty()) return queue_.push(now_ + delay, std::move(cb));
    return shard_push(current_shard(), delay, std::move(cb));
  }

  /// Schedules `cb` at an absolute instant; must not be in the past.
  EventId schedule_at(SimTime at, EventCallback&& cb) {
    if (shards_.empty()) {
      if (at < now_) throw std::invalid_argument("schedule_at in the past");
      return queue_.push(at, std::move(cb));
    }
    Shard& s = current_shard();
    if (at < s.now) throw std::invalid_argument("schedule_at in the past");
    return shard_push_at(s, at, std::move(cb));
  }

  /// Cancels a previously scheduled event; false if it already ran.
  bool cancel(EventId id) {
    if (shards_.empty()) return queue_.cancel(id);
    return shards_[id.shard_]->queue.cancel(id);
  }

  /// Runs until the event queue is empty. Returns the number of events fired.
  std::uint64_t run();

  /// Runs events with time <= deadline; the clock ends at min(deadline,
  /// last event). Returns the number of events fired.
  std::uint64_t run_until(SimTime deadline);

  /// Fires exactly one event if any is pending (sequential engines only).
  bool step();

  [[nodiscard]] bool idle() const;
  [[nodiscard]] std::size_t pending_events() const;
  [[nodiscard]] std::uint64_t events_fired() const;
  [[nodiscard]] std::uint64_t events_scheduled() const;

  // --- conservative PDES ---

  /// Shards the engine into `domains` independent event queues advancing in
  /// synchronized windows of `lookahead` (the minimum cross-domain latency;
  /// must be positive). Call once, before building components; the engine
  /// must be empty. domains == 1 is a no-op (the engine stays sequential).
  void enable_domains(int domains, SimDuration lookahead);

  /// Sizes the window worker pool (default 1). Threads beyond the domain
  /// count are not spawned. Never affects results, only wall-clock.
  void set_threads(int threads);

  /// Number of domains (1 when sequential).
  [[nodiscard]] int domains() const {
    return shards_.empty() ? 1 : static_cast<int>(shards_.size());
  }
  [[nodiscard]] int threads() const { return threads_; }

  /// Installs the window-boundary hook, run single-threaded by the
  /// coordinator after every window (the Fabric drains deferred cross-domain
  /// sends here). The hook may inject future work via schedule_at_on.
  void set_window_hook(std::function<void()> hook) { window_hook_ = std::move(hook); }

  /// Coordinator-side injection into a specific domain at an absolute time.
  /// Must not target simulated time the domain has already executed past —
  /// that is exactly the conservative-lookahead guarantee the caller owes.
  /// `path` is the injected work's causal ancestry (hops[0] = the instant
  /// it was emitted, deeper hops = the emitter's ancestry) and `lineage`
  /// the coordinator's injection stamp; together they slot the event into
  /// the sequential insertion order (see the EventQueue tie-break contract).
  EventId schedule_at_on(int domain, SimTime at, EventCallback&& cb,
                         const SchedPath* path = nullptr,
                         std::uint64_t lineage = 0);

  /// The running event's causal ancestry / lineage stamp (zeros when
  /// sequential, or outside event execution). The Fabric stamps deferred
  /// sends with these so the window merge can reproduce the sequential
  /// issue order of equal-instant sends.
  [[nodiscard]] const SchedPath& current_event_path() const {
    static const SchedPath kZero{};
    const Shard* s = static_cast<const Shard*>(detail::t_shard);
    return s ? s->cur_path : kZero;
  }
  [[nodiscard]] std::uint64_t current_event_lineage() const {
    const Shard* s = static_cast<const Shard*>(detail::t_shard);
    return s ? s->cur_lineage : 0;
  }

  /// Direct-call context for building components and seeding initial work
  /// into a domain: schedule()/now()/Tracer routing all resolve to `domain`
  /// for the scope's lifetime. No-op on sequential engines.
  class DomainScope {
   public:
    DomainScope(Engine& engine, int domain);
    ~DomainScope();
    DomainScope(const DomainScope&) = delete;
    DomainScope& operator=(const DomainScope&) = delete;

   private:
    void* prev_shard_;
    int prev_domain_;
  };

  /// Events fired by one domain; for RunResult's per-domain load stats.
  [[nodiscard]] std::uint64_t domain_events_fired(int domain) const;
  /// Synchronization windows executed so far (0 when sequential).
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }

  /// Exclusive end of the last completed window: every domain has executed
  /// all events strictly before this instant. Window-hook injections must
  /// land at or after it (asserted in schedule_at_on).
  [[nodiscard]] SimTime window_floor() const { return window_floor_; }

  /// The run's metric registry. Per-engine (= per-simulation) so sweep
  /// threads share nothing; components register their counters here at
  /// construction and RunResult snapshots it generically.
  [[nodiscard]] obs::MetricRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricRegistry& metrics() const { return metrics_; }

 private:
  // Cache-line sized so two workers draining neighbouring shards never
  // false-share a clock or queue header.
  struct alignas(64) Shard {
    EventQueue queue;
    SimTime now = SimTime::zero();
    std::uint64_t fired = 0;
    std::uint32_t index = 0;
    // The running event's stamps; events it schedules inherit the lineage
    // and a shifted copy of the path (own sched prepended), keeping every
    // chain's anchor and near ancestry traceable.
    SchedPath cur_path;
    std::uint64_t cur_lineage = 0;
    // What a callback threw; it ends this shard's window, and run_windows
    // rethrows it once the window is over and the pool joined.
    std::exception_ptr error;
  };

  [[nodiscard]] Shard& current_shard() {
    Shard* s = static_cast<Shard*>(detail::t_shard);
    if (s == nullptr) {
      // Control-thread scheduling outside any DomainScope targets domain 0;
      // setup code that cares uses DomainScope/schedule_at_on explicitly.
      return *shards_[0];
    }
    return *s;
  }

  EventId shard_push(Shard& s, SimDuration delay, EventCallback&& cb) {
    return shard_push_at(s, s.now + delay, std::move(cb));
  }

  EventId shard_push_at(Shard& s, SimTime at, EventCallback&& cb) {
    // The child's ancestry: its own sched (now) prepended to the running
    // event's path, oldest hop dropped.
    const SchedPath child{{s.now, s.cur_path.hops[0], s.cur_path.hops[1],
                           s.cur_path.hops[2]}};
    EventId id = s.queue.push(at, std::move(cb), s.now, s.cur_lineage, &child);
    id.shard_ = s.index;
    return id;
  }

  /// Fires the earliest pending event if it is due by `deadline`
  /// (sequential engines only); false when none is.
  bool fire_next(SimTime deadline);

  /// Drains one shard's events with time < end under its DomainScope.
  static void drain_shard(Shard& s, SimTime end);

  std::uint64_t run_windows(SimTime deadline, bool bounded);

  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t fired_ = 0;
  obs::MetricRegistry metrics_;

  // PDES state (empty/unused for sequential engines).
  std::vector<std::unique_ptr<Shard>> shards_;
  SimDuration lookahead_ = SimDuration::zero();
  int threads_ = 1;
  std::function<void()> window_hook_;
  std::uint64_t windows_ = 0;
  SimTime window_floor_ = SimTime::zero();
};

}  // namespace qmb::sim
