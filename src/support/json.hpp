#pragma once

/// \file json.hpp
/// \brief Minimal JSON document model, parser and writer.
///
/// Case files (switch inputs: flows, conflicts, binding policy) and machine-
/// readable experiment reports are JSON. The subset implemented is full
/// RFC 8259 JSON minus \uXXXX surrogate pairs outside the BMP; numbers are
/// stored as double (integral values round-trip exactly up to 2^53, far
/// beyond anything a switch model needs).

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/status.hpp"

namespace mlsi::json {

class Value;

using Array = std::vector<Value>;

/// \brief A JSON object: its members in one contiguous vector, sorted by
/// key, so serialization is deterministic and a lookup is a binary search.
///
/// Keeps the part of the std::map interface the program uses. An insert
/// moves the members after it: do not hold a reference to a member across
/// an insert into the same object.
class Object {
 public:
  using value_type = std::pair<std::string, Value>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  Object() = default;
  /// A repeated key keeps its first value, as std::map's constructor does.
  Object(std::initializer_list<value_type> members);

  /// Members in any order; a repeated key keeps its last value, the rule
  /// for parsed documents. O(n log n), and O(n) when already sorted.
  static Object from_members(std::vector<value_type> members);

  /// The member named \p key, inserted as null when absent. A key that
  /// sorts after every present key is appended without a search, so
  /// writers that add their members in key order pay no lookup.
  Value& operator[](std::string_view key);

  [[nodiscard]] iterator find(std::string_view key);
  [[nodiscard]] const_iterator find(std::string_view key) const;
  [[nodiscard]] std::size_t count(std::string_view key) const;
  /// Removes the member named \p key; returns how many were removed.
  std::size_t erase(std::string_view key);

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return members_.empty(); }
  [[nodiscard]] iterator begin() { return members_.begin(); }
  [[nodiscard]] iterator end() { return members_.end(); }
  [[nodiscard]] const_iterator begin() const { return members_.begin(); }
  [[nodiscard]] const_iterator end() const { return members_.end(); }

 private:
  std::vector<value_type> members_;
};

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

/// \brief A JSON document node: a tagged union with value semantics, 40
/// bytes on LP64 (a std::string is the largest member).
class Value {
 public:
  Value() noexcept : type_(Type::kNull) {}
  Value(std::nullptr_t) noexcept : Value() {}                      // NOLINT
  Value(bool b) noexcept : type_(Type::kBool), bool_(b) {}          // NOLINT
  Value(double n) noexcept : type_(Type::kNumber), num_(n) {}       // NOLINT
  Value(int n) noexcept : Value(static_cast<double>(n)) {}          // NOLINT
  Value(std::int64_t n) noexcept : Value(static_cast<double>(n)) {} // NOLINT
  Value(std::size_t n) noexcept : Value(static_cast<double>(n)) {}  // NOLINT
  Value(const char* s) : type_(Type::kString), str_(s) {}           // NOLINT
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Value(std::string_view s) : type_(Type::kString), str_(s) {}      // NOLINT
  Value(Array a) : type_(Type::kArray), arr_(std::move(a)) {}       // NOLINT
  Value(Object o) : type_(Type::kObject), obj_(std::move(o)) {}     // NOLINT

  Value(const Value& other);
  /// A moved-from value keeps its type with moved-from contents.
  Value(Value&& other) noexcept : type_(other.type_) { take(other); }
  /// Copy and move assignment in one: \p other is built before *this is
  /// released, so assigning a value from inside itself is safe.
  Value& operator=(Value other) noexcept {
    if (owns_storage()) release();
    type_ = other.type_;
    take(other);
    return *this;
  }
  ~Value() {
    if (owns_storage()) release();
  }

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
  /// Move-constructs the member of type_ from \p other's; the storage of
  /// *this holds no live member.
  void take(Value& other) noexcept {
    switch (type_) {
      case Type::kNull: break;
      case Type::kBool: bool_ = other.bool_; break;
      case Type::kNumber: num_ = other.num_; break;
      case Type::kString: std::construct_at(&str_, std::move(other.str_)); break;
      case Type::kArray: std::construct_at(&arr_, std::move(other.arr_)); break;
      case Type::kObject: std::construct_at(&obj_, std::move(other.obj_)); break;
    }
  }
  [[nodiscard]] bool owns_storage() const {
    return type_ == Type::kString || type_ == Type::kArray ||
           type_ == Type::kObject;
  }
  /// Ends the lifetime of the string, array or object member. Out of line:
  /// where it is inlined into a caller that passes the value's address
  /// elsewhere, GCC no longer sees which member is live and warns
  /// (-Wmaybe-uninitialized).
  void release() noexcept;
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  union {
    bool bool_;
    double num_;
    std::string str_;
    Array arr_;
    Object obj_;
  };
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
