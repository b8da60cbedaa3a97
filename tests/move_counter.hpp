// A callable that counts its own moves, for pinning how many times the
// event path relocates a callback. sim::Callback relocates its target by
// move construction, so each hop that moves the callback shows up here.
#pragma once

#include "sim/engine.hpp"

namespace qmb::testutil {

struct MoveCounter {
  int* moves;
  int* calls;

  MoveCounter(int* moves_out, int* calls_out) : moves(moves_out), calls(calls_out) {}
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves), calls(other.calls) {
    ++*moves;
  }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;

  void operator()() { ++*calls; }
};

/// Moves one MoveCounter undergoes from `schedule(engine, counter)` until it
/// has fired, or -1 if it did not fire exactly once. Runs on a fresh engine
/// with that one event: a second pending event could grow the queue's slot
/// table and relocate the first, which is not a per-event cost.
template <typename Schedule>
int moves_until_fired(Schedule schedule) {
  int moves = 0;
  int calls = 0;
  sim::Engine engine;
  schedule(engine, MoveCounter(&moves, &calls));
  engine.run();
  return calls == 1 ? moves : -1;
}

}  // namespace qmb::testutil
