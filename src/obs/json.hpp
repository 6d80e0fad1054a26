// Minimal JSON document model: enough to write the obs exports (Chrome
// trace, metrics, bench tables) and to parse them back for round-trip
// checks — no external dependency, deterministic member order (insertion
// order is preserved when dumping).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace chk::obs::json {

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null
  static Value boolean(bool b);
  static Value number(double v);
  static Value number(std::int64_t v);
  static Value number(std::uint64_t v);
  static Value string(std::string s);
  static Value array();
  static Value object();

  [[nodiscard]] Type type() const noexcept { return type_; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;

  // -- arrays ----------------------------------------------------------------
  Value& push_back(Value v);
  [[nodiscard]] std::size_t size() const noexcept { return array_.size(); }
  [[nodiscard]] const Value& operator[](std::size_t i) const { return array_.at(i); }
  [[nodiscard]] const std::vector<Value>& items() const noexcept { return array_; }

  // -- objects ---------------------------------------------------------------
  Value& set(std::string key, Value v);
  [[nodiscard]] bool contains(std::string_view key) const noexcept;
  /// Throws ParseError if the key is absent.
  [[nodiscard]] const Value& at(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& members() const noexcept {
    return object_;
  }

  /// Compact serialization. Integral numbers print without a decimal point,
  /// so int64 payloads survive a dump/parse round trip exactly.
  [[nodiscard]] std::string dump() const;

  /// Strict-enough recursive-descent parser; throws ParseError.
  [[nodiscard]] static Value parse(std::string_view text);

 private:
  void dump_to(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// JSON string escaping (quotes, backslash, control characters).
[[nodiscard]] std::string escape(std::string_view s);

}  // namespace chk::obs::json
