// Deterministic fault injection at the fabric boundary.
//
// Rules match packets by (src, dst) filters and decide per-match what the
// wire does to them: drop, duplicate, reorder (delay past later traffic),
// or corrupt (the packet arrives, fails the receiving NIC's CRC check, and
// is discarded there). Firing modes: the N-th matching packet (exact, for
// targeted protocol tests), a probability drawn from a seeded RNG (soak
// tests), or a simulated-time window (blackouts). Myrinet provides no
// link-level reliability, so the MCP and the collective protocol must
// recover from anything injected here; Quadrics is hardware-reliable and
// normally runs with no rules installed.
//
// A rule is a FaultSpec — a plain serializable struct that the CLI's
// --fault grammar parses into and the fuzzer's repro artifacts round-trip
// through JSON — installed one at a time with install(), or a plan at a
// time with install_plan():
//
//   faults.install({.src = 2, .dst = 4, .nth = 3});  // drop
//   faults.install({.action = FaultAction::kDuplicate, .prob = 0.01, .seed = 7});
//   faults.install({.from_ps = from.picos(), .until_ps = until.picos()});  // blackout
//   faults.install({.action = FaultAction::kReorder, .nth = 2,
//                   .delay_ps = sim::microseconds(10).picos()});
//
// Rules match in installation order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace qmb::net {

enum class FaultAction { kDeliver, kDrop, kDuplicate, kReorder, kCorrupt };

[[nodiscard]] std::string_view to_string(FaultAction a);
[[nodiscard]] std::optional<FaultAction> parse_fault_action(std::string_view s);

/// One fault rule as plain data: (src, dst) filter, action, and exactly one
/// firing mode — nth > 0, prob > 0, or a [from_ps, until_ps) time window.
/// Serializable by design (integers and doubles only) so fuzzer repro
/// artifacts and the CLI --fault grammar both map onto it 1:1.
struct FaultSpec {
  std::int32_t src = -1;  // -1 = any source
  std::int32_t dst = -1;  // -1 = any destination
  FaultAction action = FaultAction::kDrop;
  std::uint64_t nth = 0;     // fire on the nth (1-based) match
  double prob = 0.0;         // fire per-match with this probability
  std::uint64_t seed = 0;    // RNG seed for probabilistic rules
  std::int64_t from_ps = 0;  // window mode when until_ps > from_ps
  std::int64_t until_ps = 0;
  std::int64_t delay_ps = 0;  // reorder: extra delivery delay

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// Empty string when the spec is installable; otherwise a printable error
/// (bad mode combination, kDeliver action, missing reorder delay, ...).
[[nodiscard]] std::string validate(const FaultSpec& spec);

class FaultInjector {
 public:
  FaultInjector() = default;

  /// Installs a rule from its data form. Throws std::invalid_argument with
  /// validate()'s message on a malformed spec.
  void install(const FaultSpec& spec);

  /// Installs every rule of a plan, in order (first firing rule wins). Not
  /// an install() overload: a braced one-designator spec such as
  /// install({.nth = 1}) would be ambiguous between the two.
  void install_plan(const std::vector<FaultSpec>& plan) {
    for (const FaultSpec& s : plan) install(s);
  }

  /// Applies `action` to each matching packet with probability `p`. Kept
  /// for perfbench; everything else calls install().
  void add_random_rule(std::optional<NicAddr> src, std::optional<NicAddr> dst, double p,
                       std::uint64_t seed, FaultAction action = FaultAction::kDrop) {
    install({.src = src ? src->value() : -1, .dst = dst ? dst->value() : -1, .action = action,
             .prob = p, .seed = seed});
  }

  /// Installs the clock used by time-windowed rules (the Fabric wires its
  /// engine in automatically).
  void set_clock(const sim::Engine* engine) { engine_ = engine; }

  /// Binds the per-action tallies to "fault.*" counters in `reg` so they
  /// appear in metric snapshots (the Fabric wires this automatically).
  /// Standalone injectors work unbound; the plain getters always count.
  void register_metrics(obs::MetricRegistry& reg);

  void clear() { rules_.clear(); }

  /// Consulted once per injected packet; first firing rule wins.
  [[nodiscard]] FaultAction decide(const Packet& p);

  /// Extra delivery delay of the most recent kReorder decision.
  [[nodiscard]] sim::SimDuration last_reorder_delay() const { return last_delay_; }

  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t reordered() const { return reordered_; }
  [[nodiscard]] std::uint64_t corrupted() const { return corrupted_; }

 private:
  struct Rule {
    FaultSpec spec;
    std::uint64_t matches = 0;
    sim::Rng rng;  // probabilistic rules only
  };

  static bool matches(const Rule& r, const Packet& p);

  const sim::Engine* engine_ = nullptr;
  std::vector<Rule> rules_;
  sim::SimDuration last_delay_ = sim::SimDuration::zero();
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t corrupted_ = 0;
  // Unbound (no-op) until register_metrics; mirror the tallies above.
  obs::Counter dropped_metric_;
  obs::Counter duplicated_metric_;
  obs::Counter reordered_metric_;
  obs::Counter corrupted_metric_;
};

}  // namespace qmb::net
