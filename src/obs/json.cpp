#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace qmb::obs {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const { throw JsonError(what, pos_); }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.string = string();
        return v;
      }
      case 't': literal("true"); return JsonValue::of(true);
      case 'f': literal("false"); return JsonValue::of(false);
      case 'n': literal("null"); return JsonValue{};
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v = JsonValue::make_object();
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v = JsonValue::make_array();
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // nothing in this repo emits them).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a JSON value");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      pos_ = start;
      fail("malformed number '" + tok + "'");
    }
    return JsonValue::of(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) { return Parser(text).run(); }

JsonValue JsonValue::of(std::string_view s) {
  JsonValue v;
  v.type = Type::kString;
  v.string = std::string(s);
  return v;
}

JsonValue JsonValue::of(double d) {
  JsonValue v;
  v.type = Type::kNumber;
  v.number = d;
  return v;
}

JsonValue JsonValue::of(bool b) {
  JsonValue v;
  v.type = Type::kBool;
  v.boolean = b;
  return v;
}

void JsonValue::set(std::string_view key, JsonValue v) {
  if (type != Type::kObject) throw std::logic_error("JsonValue::set on a non-object");
  object.emplace_back(std::string(key), std::move(v));
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v && v->type == Type::kNumber ? v->number : fallback;
}

std::string_view JsonValue::string_or(std::string_view key,
                                      std::string_view fallback) const {
  const JsonValue* v = find(key);
  return v && v->type == Type::kString ? std::string_view(v->string) : fallback;
}

namespace {

[[noreturn]] void bad_field(std::string_view what, std::string_view key,
                            const char* must_be) {
  throw std::invalid_argument(std::string(what) + " field '" + std::string(key) +
                              "' must be " + must_be);
}

}  // namespace

JsonValue u64_json(std::uint64_t v) { return JsonValue::of(std::to_string(v)); }

std::uint64_t u64_field(const JsonValue& obj, std::string_view key, std::uint64_t fallback,
                        std::string_view what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type == JsonValue::Type::kString) {
    return std::strtoull(v->string.c_str(), nullptr, 10);
  }
  if (v->type == JsonValue::Type::kNumber) return static_cast<std::uint64_t>(v->number);
  bad_field(what, key, "a string or number");
}

std::int64_t i64_field(const JsonValue& obj, std::string_view key, std::int64_t fallback,
                       std::string_view what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != JsonValue::Type::kNumber) bad_field(what, key, "a number");
  return static_cast<std::int64_t>(v->number);
}

double double_field(const JsonValue& obj, std::string_view key, double fallback,
                    std::string_view what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != JsonValue::Type::kNumber) bad_field(what, key, "a number");
  return v->number;
}

bool bool_field(const JsonValue& obj, std::string_view key, bool fallback,
                std::string_view what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != JsonValue::Type::kBool) bad_field(what, key, "a bool");
  return v->boolean;
}

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonValue::dump_to(std::string& out) const {
  switch (type) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += boolean ? "true" : "false"; break;
    case Type::kNumber: {
      char buf[32];
      if (std::nearbyint(number) == number && std::fabs(number) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", number);
      } else {
        std::snprintf(buf, sizeof buf, "%.17g", number);
      }
      out += buf;
      break;
    }
    case Type::kString: out += json_quote(string); break;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i) out += ',';
        array[i].dump_to(out);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i) out += ',';
        out += json_quote(object[i].first);
        out += ':';
        object[i].second.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace qmb::obs
