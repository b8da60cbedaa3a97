#include "net/fault.hpp"

#include <cassert>
#include <stdexcept>

namespace qmb::net {

std::string_view to_string(FaultAction a) {
  switch (a) {
    case FaultAction::kDeliver: return "deliver";
    case FaultAction::kDrop: return "drop";
    case FaultAction::kDuplicate: return "duplicate";
    case FaultAction::kReorder: return "reorder";
    case FaultAction::kCorrupt: return "corrupt";
  }
  return "?";
}

std::optional<FaultAction> parse_fault_action(std::string_view s) {
  if (s == "drop") return FaultAction::kDrop;
  if (s == "duplicate" || s == "dup") return FaultAction::kDuplicate;
  if (s == "reorder") return FaultAction::kReorder;
  if (s == "corrupt") return FaultAction::kCorrupt;
  return std::nullopt;
}

std::string validate(const FaultSpec& s) {
  if (s.action == FaultAction::kDeliver) return "fault rule action must not be deliver";
  const bool windowed = s.until_ps > s.from_ps;
  const int modes = (s.nth > 0 ? 1 : 0) + (s.prob > 0.0 ? 1 : 0) + (windowed ? 1 : 0);
  if (modes == 0) {
    return "fault rule needs a firing mode: nth > 0, prob > 0, or a time window";
  }
  if (modes > 1) return "fault rule must use exactly one firing mode (nth/prob/window)";
  if (s.prob < 0.0 || s.prob >= 1.0) {
    return "fault rule prob must be in [0, 1) (got " + std::to_string(s.prob) + ")";
  }
  if (s.until_ps != 0 && !windowed) {
    return "fault rule window is empty (until <= from)";
  }
  if (s.action == FaultAction::kReorder && s.delay_ps <= 0) {
    return "reorder rule needs a positive delay";
  }
  if (s.action != FaultAction::kReorder && s.delay_ps != 0) {
    return "delay only applies to reorder rules";
  }
  if (s.src < -1) return "fault rule src must be a node index or -1 (any)";
  if (s.dst < -1) return "fault rule dst must be a node index or -1 (any)";
  return {};
}

void FaultInjector::install(const FaultSpec& spec) {
  if (const std::string err = validate(spec); !err.empty()) {
    throw std::invalid_argument(err);
  }
  Rule r;
  r.spec = spec;
  if (spec.prob > 0.0) r.rng = sim::Rng(spec.seed);
  rules_.push_back(std::move(r));
}

void FaultInjector::register_metrics(obs::MetricRegistry& reg) {
  dropped_metric_ = reg.counter("fault.dropped");
  duplicated_metric_ = reg.counter("fault.duplicated");
  reordered_metric_ = reg.counter("fault.reordered");
  corrupted_metric_ = reg.counter("fault.corrupted");
}

bool FaultInjector::matches(const Rule& r, const Packet& p) {
  if (r.spec.src >= 0 && r.spec.src != p.src.value()) return false;
  if (r.spec.dst >= 0 && r.spec.dst != p.dst.value()) return false;
  return true;
}

FaultAction FaultInjector::decide(const Packet& p) {
  for (Rule& r : rules_) {
    if (!matches(r, p)) continue;
    ++r.matches;
    bool fire = false;
    if (r.spec.until_ps > r.spec.from_ps) {
      assert(engine_ != nullptr && "windowed rule requires a clock");
      const std::int64_t now = engine_->now().picos();
      fire = now >= r.spec.from_ps && now < r.spec.until_ps;
    } else if (r.spec.nth > 0) {
      fire = r.matches == r.spec.nth;
    } else {
      fire = r.rng.next_bool(r.spec.prob);
    }
    if (!fire) continue;
    switch (r.spec.action) {
      case FaultAction::kDrop:
        ++dropped_;
        ++dropped_metric_;
        break;
      case FaultAction::kDuplicate:
        ++duplicated_;
        ++duplicated_metric_;
        break;
      case FaultAction::kReorder:
        ++reordered_;
        ++reordered_metric_;
        last_delay_ = sim::SimDuration(r.spec.delay_ps);
        break;
      case FaultAction::kCorrupt:
        ++corrupted_;
        ++corrupted_metric_;
        break;
      case FaultAction::kDeliver: break;  // unreachable; install() rejects it
    }
    return r.spec.action;
  }
  return FaultAction::kDeliver;
}

}  // namespace qmb::net
