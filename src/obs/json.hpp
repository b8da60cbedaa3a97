// Minimal JSON tree: parse, navigate, serialize.
//
// Exists so benchdiff can read BENCH_suite.json and tests can assert the
// Chrome-trace exporter emits well-formed JSON, without pulling an external
// dependency into the build. Covers the JSON this repo writes (objects,
// arrays, strings with standard escapes, doubles, bools, null); it is a
// strict parser — trailing garbage, bad escapes, or unterminated values
// throw JsonError with a byte offset.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qmb::obs {

class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " (at byte " + std::to_string(offset) + ")"),
        offset_(offset) {}
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion-ordered

  /// Parses a complete JSON document; throws JsonError on malformed input.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  // -- constructors for building documents --
  [[nodiscard]] static JsonValue make_object() { return of_type(Type::kObject); }
  [[nodiscard]] static JsonValue make_array() { return of_type(Type::kArray); }
  [[nodiscard]] static JsonValue of(std::string_view s);
  // Without this overload a string literal would prefer of(bool) — pointer
  // to bool is a standard conversion, const char* to string_view is not.
  [[nodiscard]] static JsonValue of(const char* s) { return of(std::string_view(s)); }
  [[nodiscard]] static JsonValue of(double d);
  [[nodiscard]] static JsonValue of(std::int64_t i) { return of(static_cast<double>(i)); }
  [[nodiscard]] static JsonValue of(std::uint64_t u) { return of(static_cast<double>(u)); }
  [[nodiscard]] static JsonValue of(bool b);

  /// Object field append (no duplicate check; callers own key uniqueness).
  void set(std::string_view key, JsonValue v);

  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  // -- checked convenience accessors --
  [[nodiscard]] bool is_object() const { return type == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string_view string_or(std::string_view key,
                                           std::string_view fallback) const;

  /// Compact single-line serialization. Doubles that hold integral values
  /// print without a decimal point.
  [[nodiscard]] std::string dump() const;

 private:
  [[nodiscard]] static JsonValue of_type(Type t) {
    JsonValue v;
    v.type = t;
    return v;
  }
  void dump_to(std::string& out) const;
};

/// Escapes `s` into a double-quoted JSON string literal.
[[nodiscard]] std::string json_quote(std::string_view s);

// Typed readers for optional object fields, shared by the spec and workload
// codecs: an absent `key` yields `fallback`; a present value of the wrong
// type throws std::invalid_argument("<what> field '<key>' must be ..."),
// where `what` names the document ("spec", "workload").

/// A u64 as a decimal string: a JSON number is a double and loses bits
/// past 2^53 (seeds use all 64).
[[nodiscard]] JsonValue u64_json(std::uint64_t v);
/// Reads u64_json's decimal strings, or plain numbers.
[[nodiscard]] std::uint64_t u64_field(const JsonValue& obj, std::string_view key,
                                      std::uint64_t fallback, std::string_view what);
[[nodiscard]] std::int64_t i64_field(const JsonValue& obj, std::string_view key,
                                     std::int64_t fallback, std::string_view what);
[[nodiscard]] double double_field(const JsonValue& obj, std::string_view key,
                                  double fallback, std::string_view what);
[[nodiscard]] bool bool_field(const JsonValue& obj, std::string_view key, bool fallback,
                              std::string_view what);

}  // namespace qmb::obs
