#include "obs/metrics.hpp"

#include <stdexcept>

namespace qmb::obs {

std::string_view to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

template <class T>
T& MetricRegistry::slot_for(std::string_view name, int node, MetricKind kind) {
  if (node < -1) {
    throw std::out_of_range("metric '" + std::string(name) + "' registered on node " +
                            std::to_string(node));
  }
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    Series& s = series_.emplace_back(
        Series{std::string(name), Values(std::in_place_type<std::deque<T>>), {}});
    it = by_name_.emplace(s.name, series_.size() - 1).first;
  }
  Series& s = series_[it->second];
  const auto was = static_cast<MetricKind>(s.values.index());
  if (was != kind) {
    throw std::logic_error("metric '" + std::string(name) + "' re-registered as " +
                           std::string(to_string(kind)) + " (was " +
                           std::string(to_string(was)) + ")");
  }
  auto& values = std::get<std::deque<T>>(s.values);
  const auto at = static_cast<std::size_t>(node + 1);
  if (at >= s.slot.size()) s.slot.resize(at + 1, kNoSlot);
  if (s.slot[at] == kNoSlot) {
    s.slot[at] = static_cast<std::uint32_t>(values.size());
    return values.emplace_back();
  }
  return values[s.slot[at]];
}

Counter MetricRegistry::counter(std::string_view name, int node) {
  return Counter(&slot_for<std::uint64_t>(name, node, MetricKind::kCounter));
}

Gauge MetricRegistry::gauge(std::string_view name, int node) {
  return Gauge(&slot_for<std::int64_t>(name, node, MetricKind::kGauge));
}

Histogram MetricRegistry::histogram(std::string_view name, int node) {
  return Histogram(&slot_for<HistogramData>(name, node, MetricKind::kHistogram));
}

std::vector<MetricValue> MetricRegistry::snapshot() const {
  std::vector<MetricValue> out;
  out.reserve(series_.size());
  for (const Series& s : series_) {
    MetricValue& mv = out.emplace_back();
    mv.name = s.name;
    mv.kind = static_cast<MetricKind>(s.values.index());
    if (const auto* counts = std::get_if<std::deque<std::uint64_t>>(&s.values)) {
      for (const std::uint64_t v : *counts) mv.value += v;
    } else if (const auto* levels = std::get_if<std::deque<std::int64_t>>(&s.values)) {
      for (const std::int64_t v : *levels) mv.gauge += v;
    } else {
      mv.buckets.assign(HistogramData::kBuckets, 0);
      for (const HistogramData& h : std::get<std::deque<HistogramData>>(s.values)) {
        mv.value += h.count;
        mv.sum += h.sum;
        for (std::size_t i = 0; i < HistogramData::kBuckets; ++i) {
          mv.buckets[i] += h.buckets[i];
        }
      }
      // Trim the bucket tail so snapshots (and their JSON) stay compact.
      while (!mv.buckets.empty() && mv.buckets.back() == 0) mv.buckets.pop_back();
    }
  }
  return out;
}

std::uint64_t MetricRegistry::total(std::string_view name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return 0;
  const auto* counts = std::get_if<std::deque<std::uint64_t>>(&series_[it->second].values);
  std::uint64_t sum = 0;
  if (counts != nullptr) {
    for (const std::uint64_t v : *counts) sum += v;
  }
  return sum;
}

std::size_t MetricRegistry::size() const {
  std::size_t n = 0;
  for (const Series& s : series_) {
    n += std::visit([](const auto& values) { return values.size(); }, s.values);
  }
  return n;
}

}  // namespace qmb::obs
