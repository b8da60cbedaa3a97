#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

namespace qmb::sim {

namespace detail {
thread_local void* t_shard = nullptr;
thread_local int t_domain = -1;
}  // namespace detail

// --- sequential path ---

bool Engine::fire_next(SimTime deadline) {
  // The fired event, callback and captures included, dies on return, before
  // the next event fires.
  std::optional<EventQueue::Fired> f = queue_.pop_due(deadline);
  if (!f) return false;
  now_ = f->at;
  ++fired_;
  f->cb();
  return true;
}

bool Engine::step() {
  if (!shards_.empty()) throw std::logic_error("step() on a sharded engine");
  return fire_next(SimTime::max());
}

std::uint64_t Engine::run() {
  if (!shards_.empty()) return run_windows(SimTime::max(), /*bounded=*/false);
  std::uint64_t n = 0;
  while (fire_next(SimTime::max())) ++n;
  return n;
}

std::uint64_t Engine::run_until(SimTime deadline) {
  if (!shards_.empty()) {
    std::uint64_t n = run_windows(deadline, /*bounded=*/true);
    for (auto& s : shards_) s->now = std::max(s->now, deadline);
    now_ = std::max(now_, deadline);
    return n;
  }
  std::uint64_t n = 0;
  while (fire_next(deadline)) ++n;
  if (now_ < deadline) now_ = deadline;
  return n;
}

// --- aggregate views (both modes) ---

bool Engine::idle() const {
  if (shards_.empty()) return queue_.empty();
  for (const auto& s : shards_)
    if (!s->queue.empty()) return false;
  return true;
}

std::size_t Engine::pending_events() const {
  if (shards_.empty()) return queue_.size();
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->queue.size();
  return n;
}

std::uint64_t Engine::events_fired() const {
  if (shards_.empty()) return fired_;
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->fired;
  return n;
}

std::uint64_t Engine::events_scheduled() const {
  if (shards_.empty()) return queue_.total_scheduled();
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->queue.total_scheduled();
  return n;
}

// --- conservative PDES ---

void Engine::enable_domains(int domains, SimDuration lookahead) {
  if (domains < 1) throw std::invalid_argument("enable_domains: domains must be >= 1");
  if (domains == 1) return;
  if (!shards_.empty()) throw std::logic_error("enable_domains called twice");
  if (fired_ != 0 || !queue_.empty() || queue_.total_scheduled() != 0)
    throw std::logic_error("enable_domains on a non-empty engine");
  if (lookahead <= SimDuration::zero())
    throw std::invalid_argument("enable_domains: lookahead must be positive");
  shards_.reserve(static_cast<std::size_t>(domains));
  for (int d = 0; d < domains; ++d) {
    auto s = std::make_unique<Shard>();
    s->index = static_cast<std::uint32_t>(d);
    shards_.push_back(std::move(s));
  }
  lookahead_ = lookahead;
}

void Engine::set_threads(int threads) { threads_ = std::max(1, threads); }

EventId Engine::schedule_at_on(int domain, SimTime at, EventCallback&& cb,
                               const SchedPath* path, std::uint64_t lineage) {
  if (shards_.empty()) {
    assert(domain == 0);
    return schedule_at(at, std::move(cb));
  }
  Shard& s = *shards_[static_cast<std::size_t>(domain)];
  // The conservative guarantee: injected work must land at or beyond the
  // window the domains have synchronized up to, never inside simulated time
  // a domain may already have executed.
  assert(at >= window_floor_);
  assert(at >= s.now);
  EventId id = s.queue.push(at, std::move(cb),
                            path ? path->hops[0] : SimTime::zero(), lineage, path);
  id.shard_ = s.index;
  return id;
}

Engine::DomainScope::DomainScope(Engine& engine, int domain)
    : prev_shard_(detail::t_shard), prev_domain_(detail::t_domain) {
  if (!engine.shards_.empty()) {
    Shard& s = *engine.shards_[static_cast<std::size_t>(domain)];
    detail::t_shard = &s;
    detail::t_domain = domain;
  }
}

Engine::DomainScope::~DomainScope() {
  detail::t_shard = prev_shard_;
  detail::t_domain = prev_domain_;
}

std::uint64_t Engine::domain_events_fired(int domain) const {
  if (shards_.empty()) return fired_;
  return shards_[static_cast<std::size_t>(domain)]->fired;
}

void Engine::drain_shard(Shard& s, SimTime end) {
  detail::t_shard = &s;
  detail::t_domain = static_cast<int>(s.index);
  // The window is [.., end) on an integer-picosecond clock. Each fired
  // event is scoped to its iteration, so its captures die before the next
  // one fires.
  const SimTime last = end - picoseconds(1);
  try {
    while (std::optional<EventQueue::Fired> f = s.queue.pop_due(last)) {
      s.now = f->at;
      s.cur_path = f->path;
      s.cur_lineage = f->lineage;
      ++s.fired;
      f->cb();
    }
  } catch (...) {
    // Never let it escape a worker thread: that would terminate the process.
    s.error = std::current_exception();
  }
  s.cur_path = SchedPath{};
  s.cur_lineage = 0;
  detail::t_shard = nullptr;
  detail::t_domain = -1;
}

std::uint64_t Engine::run_windows(SimTime deadline, bool bounded) {
  const std::uint64_t fired_before = events_fired();
  const int nshards = static_cast<int>(shards_.size());
  const int nworkers = std::min(threads_, nshards) - 1;  // main thread is worker 0

  // One pool per run: workers park on the epoch counter between windows and
  // race through shards via a shared claim index inside one. A window is a
  // full barrier — the coordinator (main thread) only runs the hook once
  // every worker has drained its claimed shards and checked in.
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<int> claim{0};
  std::atomic<int> done{0};
  std::atomic<bool> stop{false};
  SimTime window_end = SimTime::zero();  // published by epoch release-store

  auto drain_claimed = [&] {
    int i;
    while ((i = claim.fetch_add(1, std::memory_order_relaxed)) < nshards)
      drain_shard(*shards_[static_cast<std::size_t>(i)], window_end);
  };

  std::vector<std::thread> pool;
  // Joins the pool on every way out, a throwing window hook included.
  struct PoolGuard {
    std::vector<std::thread>& pool;
    std::atomic<std::uint64_t>& epoch;
    std::atomic<bool>& stop;
    void join() {
      if (pool.empty()) return;
      stop.store(true, std::memory_order_release);
      epoch.fetch_add(1, std::memory_order_release);
      epoch.notify_all();
      for (auto& t : pool) t.join();
      pool.clear();
    }
    ~PoolGuard() { join(); }
  } guard{pool, epoch, stop};
  pool.reserve(static_cast<std::size_t>(std::max(0, nworkers)));
  for (int w = 0; w < nworkers; ++w) {
    pool.emplace_back([&, my_epoch = std::uint64_t{0}]() mutable {
      while (true) {
        epoch.wait(my_epoch, std::memory_order_acquire);
        my_epoch = epoch.load(std::memory_order_acquire);
        if (stop.load(std::memory_order_acquire)) return;
        drain_claimed();
        done.fetch_add(1, std::memory_order_release);
        done.notify_one();
      }
    });
  }

  while (true) {
    // Global minimum pending time decides where the next window opens.
    std::optional<SimTime> tmin;
    for (const auto& s : shards_) {
      const auto t = s->queue.next_time();
      if (t && (!tmin || *t < *tmin)) tmin = t;
    }
    if (!tmin) break;
    if (bounded && *tmin > deadline) break;

    window_end = *tmin + lookahead_;
    if (bounded && deadline < SimTime::max() && window_end > deadline + picoseconds(1))
      window_end = deadline + picoseconds(1);  // events at exactly `deadline` still run

    claim.store(0, std::memory_order_relaxed);
    done.store(0, std::memory_order_relaxed);
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
    drain_claimed();
    for (int d = done.load(std::memory_order_acquire); d < nworkers;
         d = done.load(std::memory_order_acquire))
      done.wait(d, std::memory_order_acquire);

    ++windows_;
    window_floor_ = window_end;
    if (std::any_of(shards_.begin(), shards_.end(), [](const auto& s) { return s->error; })) {
      break;
    }
    if (window_hook_) window_hook_();
  }
  guard.join();

  // Mirror the sequential clock semantics: the engine clock ends at the last
  // fired event (run_until then clamps it up to the deadline in the caller).
  SimTime maxnow = now_;
  for (const auto& s : shards_) maxnow = std::max(maxnow, s->now);
  now_ = maxnow;
  // The lowest domain's exception, whichever thread ran it.
  for (const auto& s : shards_) {
    if (s->error) std::rethrow_exception(std::exchange(s->error, nullptr));
  }
  return events_fired() - fired_before;
}

}  // namespace qmb::sim
