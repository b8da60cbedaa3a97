// Metric registry: named counters, gauges, and log2 histograms.
//
// Components register metrics once (at construction) and receive a handle;
// the hot path is a pointer-indirect increment — no map lookup, no string
// hashing, no allocation. The registry is an ordinary object owned by the
// simulation Engine, so every run has a private instance: SweepRunner
// threads stay share-nothing and metric collection can never perturb
// simulation order (metrics are plain stores, never scheduled events).
//
// Naming: a metric is a name plus a node. Multiple components registering
// the same name on different nodes (one MCP per NIC, say) each get a private
// slot; snapshot() and total() aggregate across nodes so consumers see one
// "mcp.retransmissions" figure per run. Registration order is deterministic
// (cluster construction is), so snapshots are too.
//
// Layout: one series per name. A series holds its nodes' values side by
// side in a deque (appends never move them, so handles stay valid for the
// registry's lifetime) and a node -> position table, so a counter slot
// costs about 17 bytes (its 8-byte value, a 4-byte table entry, the
// deque's block overhead) and neighbouring nodes' counters share cache
// lines. A registration is one name lookup (no string allocated) and one
// append, about 50 ns; total() is one lookup and one sum, snapshot() one
// pass over the series. A name has one kind: registering it as another
// kind, on any node, throws std::logic_error.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace qmb::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(MetricKind k);

/// Fixed-bucket log2 histogram payload. Bucket 0 counts zeros; bucket i >= 1
/// counts values in [2^(i-1), 2^i). 64-bit values need at most 65 buckets.
struct HistogramData {
  static constexpr std::size_t kBuckets = 65;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Inclusive lower bound of bucket i.
  [[nodiscard]] static constexpr std::uint64_t bucket_lo(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Exclusive upper bound of bucket i (saturates at UINT64_MAX).
  [[nodiscard]] static constexpr std::uint64_t bucket_hi(std::size_t i) {
    return i >= 64 ? ~std::uint64_t{0} : std::uint64_t{1} << i;
  }
};

/// Handle to a registered counter. Copyable, trivially cheap; a
/// default-constructed handle is unbound and drops increments.
class Counter {
 public:
  Counter() = default;
  Counter& operator++() {
    if (slot_) ++*slot_;
    return *this;
  }
  Counter& operator+=(std::uint64_t d) {
    if (slot_) *slot_ += d;
    return *this;
  }
  void add(std::uint64_t d) { *this += d; }
  [[nodiscard]] std::uint64_t value() const { return slot_ ? *slot_ : 0; }
  operator std::uint64_t() const { return value(); }  // NOLINT(google-explicit-constructor)

 private:
  friend class MetricRegistry;
  explicit Counter(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_ = nullptr;
};

/// Handle to a registered gauge (a settable signed level, e.g. buffers free).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) {
    if (slot_) *slot_ = v;
  }
  void add(std::int64_t d) {
    if (slot_) *slot_ += d;
  }
  [[nodiscard]] std::int64_t value() const { return slot_ ? *slot_ : 0; }

 private:
  friend class MetricRegistry;
  explicit Gauge(std::int64_t* slot) : slot_(slot) {}
  std::int64_t* slot_ = nullptr;
};

/// Handle to a registered log2 histogram.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) {
    if (!data_) return;
    ++data_->buckets[HistogramData::bucket_index(v)];
    ++data_->count;
    data_->sum += v;
  }
  [[nodiscard]] std::uint64_t count() const { return data_ ? data_->count : 0; }
  [[nodiscard]] std::uint64_t sum() const { return data_ ? data_->sum : 0; }
  [[nodiscard]] const HistogramData* data() const { return data_; }

 private:
  friend class MetricRegistry;
  explicit Histogram(HistogramData* data) : data_(data) {}
  HistogramData* data_ = nullptr;
};

/// One aggregated metric in a snapshot (summed across nodes).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;             // counter total; histogram sample count
  std::int64_t gauge = 0;              // gauge total
  std::uint64_t sum = 0;               // histogram: sum of samples
  std::vector<std::uint64_t> buckets;  // histogram only; trailing zeros trimmed

  friend bool operator==(const MetricValue&, const MetricValue&) = default;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Registers (or re-binds to) the counter (name, node). node = -1 means
  /// "whole simulation". Throws std::logic_error if the name exists with a
  /// different kind (on any node), std::out_of_range for node < -1.
  [[nodiscard]] Counter counter(std::string_view name, int node = -1);
  [[nodiscard]] Gauge gauge(std::string_view name, int node = -1);
  [[nodiscard]] Histogram histogram(std::string_view name, int node = -1);

  /// Aggregated view, one entry per distinct name, in first-registration
  /// order; counters/gauges/histograms sum across nodes.
  [[nodiscard]] std::vector<MetricValue> snapshot() const;

  /// Sum of a counter across nodes; 0 when the name was never registered.
  [[nodiscard]] std::uint64_t total(std::string_view name) const;

  /// Registered (name, node) slots.
  [[nodiscard]] std::size_t size() const;

 private:
  // Alternatives in MetricKind order: the index is the series' kind.
  using Values = std::variant<std::deque<std::uint64_t>, std::deque<std::int64_t>,
                              std::deque<HistogramData>>;
  static_assert(static_cast<int>(MetricKind::kCounter) == 0 &&
                static_cast<int>(MetricKind::kGauge) == 1 &&
                static_cast<int>(MetricKind::kHistogram) == 2);
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Series {
    std::string name;
    Values values;                    // one per registered node, in registration order
    std::vector<std::uint32_t> slot;  // [node + 1]: index into values, or kNoSlot
  };

  template <class T>
  T& slot_for(std::string_view name, int node, MetricKind kind);

  // A deque: series never move, so by_name_'s views of their names hold.
  std::deque<Series> series_;  // first-registration order
  std::map<std::string_view, std::size_t> by_name_;
};

}  // namespace qmb::obs
