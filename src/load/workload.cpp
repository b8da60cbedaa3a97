#include "load/workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/rng.hpp"

namespace qmb::load {

std::string_view to_string(Arrival a) {
  switch (a) {
    case Arrival::kClosed: return "closed";
    case Arrival::kFixedRate: return "fixed";
    case Arrival::kPoisson: return "poisson";
    case Arrival::kBurst: return "burst";
  }
  return "?";
}

std::string_view to_string(Membership m) {
  switch (m) {
    case Membership::kBlock: return "block";
    case Membership::kStride: return "stride";
    case Membership::kRandom: return "random";
  }
  return "?";
}

std::optional<Arrival> parse_arrival(std::string_view s) {
  if (s == "closed") return Arrival::kClosed;
  if (s == "fixed") return Arrival::kFixedRate;
  if (s == "poisson") return Arrival::kPoisson;
  if (s == "burst") return Arrival::kBurst;
  return std::nullopt;
}

std::optional<Membership> parse_membership(std::string_view s) {
  if (s == "block") return Membership::kBlock;
  if (s == "stride") return Membership::kStride;
  if (s == "random") return Membership::kRandom;
  return std::nullopt;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed ^ salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<coll::OpKind> distinct_kinds(const WorkloadSpec& w) {
  std::vector<coll::OpKind> kinds;
  for (const coll::OpKind k : w.mix) {
    if (std::find(kinds.begin(), kinds.end(), k) == kinds.end()) kinds.push_back(k);
  }
  return kinds;
}

std::vector<int> group_placement(const WorkloadSpec& w, int g, int nodes,
                                 std::uint64_t seed) {
  std::vector<int> placement(static_cast<std::size_t>(w.group_size));
  switch (w.membership) {
    case Membership::kBlock:
      for (int r = 0; r < w.group_size; ++r) {
        placement[static_cast<std::size_t>(r)] = (g * w.group_size + r) % nodes;
      }
      break;
    case Membership::kStride:
      for (int r = 0; r < w.group_size; ++r) {
        placement[static_cast<std::size_t>(r)] = (g + r * w.groups) % nodes;
      }
      break;
    case Membership::kRandom: {
      sim::Rng rng(mix_seed(seed, 0x4D454D42ULL + static_cast<std::uint64_t>(g)));
      const std::vector<std::size_t> perm = rng.permutation(static_cast<std::size_t>(nodes));
      for (int r = 0; r < w.group_size; ++r) {
        placement[static_cast<std::size_t>(r)] =
            static_cast<int>(perm[static_cast<std::size_t>(r)]);
      }
      break;
    }
  }
  return placement;
}

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

std::string validate_workload(const WorkloadSpec& w, int nodes, int max_groups) {
  if (!w.enabled()) return "";
  if (w.group_size < 2) {
    return "workload group size must be >= 2 (got " + std::to_string(w.group_size) + ")";
  }
  if (w.group_size > nodes) {
    return "workload group size " + std::to_string(w.group_size) + " exceeds " +
           std::to_string(nodes) + " nodes (a rank per group maps to a distinct node)";
  }
  if (w.mix.empty()) return "workload mix must name at least one operation";
  const std::size_t kinds = distinct_kinds(w).size();
  const long long executors =
      static_cast<long long>(w.groups) * static_cast<long long>(kinds);
  if (executors > max_groups) {
    return "workload needs " + std::to_string(w.groups) + " groups x " +
           std::to_string(kinds) + " op kinds = " + std::to_string(executors) +
           " concurrent group slots, but the substrate exposes " +
           std::to_string(max_groups) +
           " (the BarrierTag group field is 11 bits wide)";
  }
  if (w.arrival != Arrival::kClosed && w.period_us <= 0.0) {
    return "workload period must be positive for open-loop arrivals";
  }
  if (w.arrival == Arrival::kBurst && (w.burst_on_us <= 0.0 || w.burst_off_us < 0.0)) {
    return "workload burst windows must be positive (on) and non-negative (off)";
  }
  if (w.flood_streams < 0) return "workload flood stream count must be >= 0";
  if (w.flood_streams > 0) {
    if (w.flood_bytes == 0) return "workload flood message size must be positive";
    if (w.flood_period_us <= 0.0) return "workload flood period must be positive";
  }
  // Two ranks of one group on the same node would collide on that node's
  // per-group NIC slot; derive every placement and reject up front instead
  // of failing deep in cluster construction. (Overlap ACROSS groups is the
  // multi-tenant feature; overlap within a group is a spec bug.)
  for (int g = 0; g < w.groups; ++g) {
    std::vector<int> p = group_placement(w, g, nodes, w.seed);
    std::sort(p.begin(), p.end());
    if (std::adjacent_find(p.begin(), p.end()) != p.end()) {
      return "workload membership '" + std::string(to_string(w.membership)) +
             "' places two ranks of group " + std::to_string(g) +
             " on one node with " + std::to_string(nodes) +
             " nodes; use block/random membership or fewer/smaller groups";
    }
  }
  return "";
}

namespace {

constexpr std::string_view kWhat = "workload";  // field-error prefix

}  // namespace

obs::JsonValue workload_to_json(const WorkloadSpec& w) {
  obs::JsonValue o = obs::JsonValue::make_object();
  o.set("groups", obs::JsonValue::of(static_cast<std::int64_t>(w.groups)));
  o.set("group_size", obs::JsonValue::of(static_cast<std::int64_t>(w.group_size)));
  o.set("membership", obs::JsonValue::of(to_string(w.membership)));
  obs::JsonValue mix = obs::JsonValue::make_array();
  for (const coll::OpKind k : w.mix) {
    mix.array.push_back(obs::JsonValue::of(coll::to_string(k)));
  }
  o.set("mix", std::move(mix));
  o.set("arrival", obs::JsonValue::of(to_string(w.arrival)));
  o.set("period_us", obs::JsonValue::of(w.period_us));
  o.set("burst_on_us", obs::JsonValue::of(w.burst_on_us));
  o.set("burst_off_us", obs::JsonValue::of(w.burst_off_us));
  o.set("flood_streams", obs::JsonValue::of(static_cast<std::int64_t>(w.flood_streams)));
  o.set("flood_bytes", obs::JsonValue::of(static_cast<std::int64_t>(w.flood_bytes)));
  o.set("flood_period_us", obs::JsonValue::of(w.flood_period_us));
  o.set("flood_random", obs::JsonValue::of(w.flood_random));
  o.set("seed", obs::u64_json(w.seed));
  return o;
}

WorkloadSpec workload_from_json(const obs::JsonValue& v) {
  if (!v.is_object()) throw std::invalid_argument("'workload' must be an object");
  WorkloadSpec w;
  w.groups = static_cast<int>(obs::i64_field(v, "groups", w.groups, kWhat));
  w.group_size = static_cast<int>(obs::i64_field(v, "group_size", w.group_size, kWhat));
  if (const obs::JsonValue* m = v.find("membership")) {
    const auto mem = parse_membership(m->string);
    if (!mem) throw std::invalid_argument("unknown membership '" + m->string + "'");
    w.membership = *mem;
  }
  if (const obs::JsonValue* mix = v.find("mix")) {
    if (!mix->is_array()) throw std::invalid_argument("'mix' must be an array");
    w.mix.clear();
    for (const obs::JsonValue& e : mix->array) {
      const auto k = coll::parse_op_kind(e.string);
      if (!k) throw std::invalid_argument("unknown op '" + e.string + "' in mix");
      w.mix.push_back(*k);
    }
  }
  if (const obs::JsonValue* a = v.find("arrival")) {
    const auto arr = parse_arrival(a->string);
    if (!arr) throw std::invalid_argument("unknown arrival '" + a->string + "'");
    w.arrival = *arr;
  }
  w.period_us = obs::double_field(v, "period_us", w.period_us, kWhat);
  w.burst_on_us = obs::double_field(v, "burst_on_us", w.burst_on_us, kWhat);
  w.burst_off_us = obs::double_field(v, "burst_off_us", w.burst_off_us, kWhat);
  w.flood_streams =
      static_cast<int>(obs::i64_field(v, "flood_streams", w.flood_streams, kWhat));
  w.flood_bytes = static_cast<std::uint32_t>(obs::i64_field(
      v, "flood_bytes", static_cast<std::int64_t>(w.flood_bytes), kWhat));
  w.flood_period_us = obs::double_field(v, "flood_period_us", w.flood_period_us, kWhat);
  w.flood_random = obs::bool_field(v, "flood_random", w.flood_random, kWhat);
  w.seed = obs::u64_field(v, "seed", w.seed, kWhat);
  return w;
}

}  // namespace qmb::load
