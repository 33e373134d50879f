#pragma once

/// \file json.hpp
/// \brief Minimal JSON document model, parser and writer.
///
/// Case files (switch inputs: flows, conflicts, binding policy) and machine-
/// readable experiment reports are JSON. The subset implemented is full
/// RFC 8259 JSON minus \uXXXX surrogate pairs outside the BMP; numbers are
/// stored as double (integral values round-trip exactly up to 2^53, far
/// beyond anything a switch model needs).

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.hpp"

namespace mlsi::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps object keys ordered → deterministic serialization.
using Object = std::map<std::string, Value, std::less<>>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

/// \brief A JSON document node (tagged union with value semantics).
class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}            // NOLINT
  Value(bool b) : type_(Type::kBool), bool_(b) {}          // NOLINT
  Value(double n) : type_(Type::kNumber), num_(n) {}       // NOLINT
  Value(int n) : Value(static_cast<double>(n)) {}          // NOLINT
  Value(std::int64_t n) : Value(static_cast<double>(n)) {} // NOLINT
  Value(std::size_t n) : Value(static_cast<double>(n)) {}  // NOLINT
  Value(const char* s) : type_(Type::kString), str_(s) {}  // NOLINT
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Value(std::string_view s) : Value(std::string{s}) {}     // NOLINT
  Value(Array a) : type_(Type::kArray), arr_(std::move(a)) {}    // NOLINT
  Value(Object o) : type_(Type::kObject), obj_(std::move(o)) {}  // NOLINT

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; MLSI_ASSERT on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] int as_int() const;  ///< asserts the number is integral
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  /// Object member lookup; returns nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Convenience typed lookups with fallback defaults for optional fields.
  [[nodiscard]] int get_int(std::string_view key, int fallback) const;
  [[nodiscard]] double get_number(std::string_view key, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string fallback) const;

  /// Serializes; \p indent > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Checked integer read for untrusted documents (case files, serve request
/// lines, the persistent store): \p fallback when \p v is null (an absent
/// optional member), kInvalidArgument naming \p what when \p v is not a
/// number, not integral, or outside int range. Value::as_int asserts
/// instead; it is for values the program itself produced.
[[nodiscard]] Result<int> read_int(const Value* v, std::string_view what,
                                   int fallback = 0);
/// read_int() for long fields (counters).
[[nodiscard]] Result<long> read_long(const Value* v, std::string_view what,
                                     long fallback = 0);

/// Parses a complete JSON document. Trailing non-whitespace is an error.
Result<Value> parse(std::string_view text);

/// Reads and parses a JSON file.
Result<Value> parse_file(const std::string& path);

/// Writes \p v to \p path, pretty-printed.
Status write_file(const std::string& path, const Value& v);

}  // namespace mlsi::json
