// Simulated-time types for the discrete-event engine.
//
// All simulated time is kept as a signed 64-bit count of picoseconds. At
// picosecond resolution the representable range is ~106 days of simulated
// time, far beyond any barrier benchmark, while sub-nanosecond link
// serialization (a byte at 4 GB/s is 250 ps) stays exact. Integer time keeps
// the simulation bit-for-bit deterministic across platforms; floating point
// is only used at the reporting boundary (microseconds for humans).
#pragma once

#include <cstdint>
#include <cstdio>
#include <compare>
#include <limits>
#include <string>

namespace qmb::sim {

/// A span of simulated time (picoseconds).
class SimDuration {
 public:
  constexpr SimDuration() = default;
  constexpr explicit SimDuration(std::int64_t picos) : picos_(picos) {}

  [[nodiscard]] constexpr std::int64_t picos() const { return picos_; }
  [[nodiscard]] constexpr double nanos() const { return static_cast<double>(picos_) * 1e-3; }
  [[nodiscard]] constexpr double micros() const { return static_cast<double>(picos_) * 1e-6; }
  [[nodiscard]] constexpr double millis() const { return static_cast<double>(picos_) * 1e-9; }

  constexpr SimDuration& operator+=(SimDuration o) { picos_ += o.picos_; return *this; }
  constexpr SimDuration& operator-=(SimDuration o) { picos_ -= o.picos_; return *this; }
  constexpr SimDuration& operator*=(std::int64_t k) { picos_ *= k; return *this; }

  friend constexpr SimDuration operator+(SimDuration a, SimDuration b) { return SimDuration(a.picos_ + b.picos_); }
  friend constexpr SimDuration operator-(SimDuration a, SimDuration b) { return SimDuration(a.picos_ - b.picos_); }
  friend constexpr SimDuration operator*(SimDuration a, std::int64_t k) { return SimDuration(a.picos_ * k); }
  friend constexpr SimDuration operator*(std::int64_t k, SimDuration a) { return SimDuration(a.picos_ * k); }
  friend constexpr SimDuration operator/(SimDuration a, std::int64_t k) { return SimDuration(a.picos_ / k); }
  friend constexpr auto operator<=>(SimDuration, SimDuration) = default;

  [[nodiscard]] static constexpr SimDuration zero() { return SimDuration(0); }
  [[nodiscard]] static constexpr SimDuration max() {
    return SimDuration(std::numeric_limits<std::int64_t>::max());
  }

 private:
  std::int64_t picos_ = 0;
};

/// An absolute point on the simulated clock (picoseconds since engine start).
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t picos) : picos_(picos) {}

  [[nodiscard]] constexpr std::int64_t picos() const { return picos_; }
  [[nodiscard]] constexpr double nanos() const { return static_cast<double>(picos_) * 1e-3; }
  [[nodiscard]] constexpr double micros() const { return static_cast<double>(picos_) * 1e-6; }

  friend constexpr SimTime operator+(SimTime t, SimDuration d) { return SimTime(t.picos_ + d.picos()); }
  friend constexpr SimTime operator+(SimDuration d, SimTime t) { return t + d; }
  friend constexpr SimTime operator-(SimTime t, SimDuration d) { return SimTime(t.picos_ - d.picos()); }
  friend constexpr SimDuration operator-(SimTime a, SimTime b) { return SimDuration(a.picos_ - b.picos_); }
  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  SimTime& operator+=(SimDuration d) { picos_ += d.picos(); return *this; }

  [[nodiscard]] static constexpr SimTime zero() { return SimTime(0); }
  [[nodiscard]] static constexpr SimTime max() {
    return SimTime(std::numeric_limits<std::int64_t>::max());
  }

 private:
  std::int64_t picos_ = 0;
};

// Factory helpers. Durations are constructed from the unit the caller thinks
// in; fractional microseconds are common in NIC cost tables, hence the
// double overloads (rounded to the nearest picosecond).
[[nodiscard]] constexpr SimDuration picoseconds(std::int64_t v) { return SimDuration(v); }
[[nodiscard]] constexpr SimDuration nanoseconds(std::int64_t v) { return SimDuration(v * 1'000); }
[[nodiscard]] constexpr SimDuration microseconds(std::int64_t v) { return SimDuration(v * 1'000'000); }
[[nodiscard]] constexpr SimDuration milliseconds(std::int64_t v) { return SimDuration(v * 1'000'000'000); }
[[nodiscard]] constexpr SimDuration seconds(std::int64_t v) { return SimDuration(v * 1'000'000'000'000); }

[[nodiscard]] constexpr SimDuration nanoseconds(double v) {
  return SimDuration(static_cast<std::int64_t>(v * 1e3 + (v >= 0 ? 0.5 : -0.5)));
}
[[nodiscard]] constexpr SimDuration microseconds(double v) {
  return SimDuration(static_cast<std::int64_t>(v * 1e6 + (v >= 0 ? 0.5 : -0.5)));
}

// Plain-int literals would otherwise be ambiguous between the int64 and
// double overloads.
[[nodiscard]] constexpr SimDuration nanoseconds(int v) { return nanoseconds(static_cast<std::int64_t>(v)); }
[[nodiscard]] constexpr SimDuration microseconds(int v) { return microseconds(static_cast<std::int64_t>(v)); }
[[nodiscard]] constexpr SimDuration milliseconds(int v) { return milliseconds(static_cast<std::int64_t>(v)); }
[[nodiscard]] constexpr SimDuration seconds(int v) { return seconds(static_cast<std::int64_t>(v)); }

namespace literals {
constexpr SimDuration operator""_ps(unsigned long long v) { return SimDuration(static_cast<std::int64_t>(v)); }
constexpr SimDuration operator""_ns(unsigned long long v) { return nanoseconds(static_cast<std::int64_t>(v)); }
constexpr SimDuration operator""_us(unsigned long long v) { return microseconds(static_cast<std::int64_t>(v)); }
constexpr SimDuration operator""_ms(unsigned long long v) { return milliseconds(static_cast<std::int64_t>(v)); }
constexpr SimDuration operator""_us(long double v) { return microseconds(static_cast<double>(v)); }
constexpr SimDuration operator""_ns(long double v) { return nanoseconds(static_cast<double>(v)); }
}  // namespace literals

/// Renders a duration as a human-readable string, e.g. "5.600us".
[[nodiscard]] inline std::string to_string(SimDuration d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3fus", d.micros());
  return buf;
}
[[nodiscard]] inline std::string to_string(SimTime t) { return to_string(SimDuration(t.picos())); }

}  // namespace qmb::sim
