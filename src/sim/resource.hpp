// A serialized hardware resource (NIC processor, host CPU, PCI bus, DMA
// engine): work items execute one at a time in FIFO order, each occupying
// the resource for its cost.
//
// exec() returns the completion time, at which the continuation runs. This
// "busy-until" discipline is how firmware occupancy creates the queuing
// delays the paper's collective protocol removes.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/engine.hpp"

namespace qmb::sim {

class Resource {
 public:
  explicit Resource(Engine& engine) : engine_(&engine) {}

  /// Runs `fn` after the resource has been acquired (FIFO after current
  /// holders) and held for `cost`. Returns the completion time.
  SimTime exec(SimDuration cost, EventCallback&& fn) {
    return exec_from(engine_->now(), cost, std::move(fn));
  }

  /// Same, but the work cannot start before `earliest` (e.g. a DMA that
  /// waits for its descriptor).
  SimTime exec_from(SimTime earliest, SimDuration cost, EventCallback&& fn) {
    const SimTime start = earliest > free_at_ ? earliest : free_at_;
    const SimTime done = start + cost;
    free_at_ = done;
    busy_ += cost;
    ++jobs_;
    if (fn) engine_->schedule_at(done, std::move(fn));
    return done;
  }

  /// Occupies the resource without a continuation.
  SimTime occupy(SimDuration cost) { return exec(cost, nullptr); }

  [[nodiscard]] SimTime free_at() const { return free_at_; }
  [[nodiscard]] SimDuration total_busy() const { return busy_; }
  [[nodiscard]] std::uint64_t jobs_executed() const { return jobs_; }
  [[nodiscard]] Engine& engine() const { return *engine_; }

 private:
  Engine* engine_;
  SimTime free_at_ = SimTime::zero();
  SimDuration busy_ = SimDuration::zero();
  std::uint64_t jobs_ = 0;
};

}  // namespace qmb::sim
