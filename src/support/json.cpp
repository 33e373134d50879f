#include "support/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "support/strings.hpp"

namespace mlsi::json {

// --- Object -----------------------------------------------------------------

namespace {

bool key_less(const Object::value_type& m, std::string_view key) {
  return std::string_view{m.first} < key;
}

bool by_key(const Object::value_type& a, const Object::value_type& b) {
  return a.first < b.first;
}

}  // namespace

Object::Object(std::initializer_list<value_type> members) {
  for (const value_type& m : members) {
    if (count(m.first) == 0) (*this)[m.first] = m.second;
  }
}

Object Object::from_members(std::vector<value_type> members) {
  const auto not_ascending = [](const value_type& a, const value_type& b) {
    return !(a.first < b.first);
  };
  if (std::adjacent_find(members.begin(), members.end(), not_ascending) !=
      members.end()) {
    // Stable, so of equal keys the last in document order ends up last.
    // Short objects take an insertion sort, which allocates nothing.
    constexpr std::size_t kInsertionSortMax = 32;
    if (members.size() <= kInsertionSortMax) {
      for (auto it = members.begin(); it != members.end(); ++it) {
        std::rotate(std::upper_bound(members.begin(), it, *it, by_key), it,
                    std::next(it));
      }
    } else {
      std::stable_sort(members.begin(), members.end(), by_key);
    }
    // Of each run of equal keys, keep the last.
    auto out = members.begin();
    for (auto it = members.begin(); it != members.end(); ++it) {
      const auto next = std::next(it);
      if (next != members.end() && next->first == it->first) continue;
      if (out != it) *out = std::move(*it);
      ++out;
    }
    members.erase(out, members.end());
  }
  Object o;
  o.members_ = std::move(members);
  return o;
}

Value& Object::operator[](std::string_view key) {
  if (members_.empty() || std::string_view{members_.back().first} < key) {
    return members_.emplace_back(std::string{key}, Value{}).second;
  }
  const auto it =
      std::lower_bound(members_.begin(), members_.end(), key, key_less);
  if (it != members_.end() && it->first == key) return it->second;
  return members_.emplace(it, std::string{key}, Value{})->second;
}

Object::const_iterator Object::find(std::string_view key) const {
  const auto it =
      std::lower_bound(members_.begin(), members_.end(), key, key_less);
  return it != members_.end() && it->first == key ? it : members_.end();
}

Object::iterator Object::find(std::string_view key) {
  return members_.begin() +
         (std::as_const(*this).find(key) - members_.cbegin());
}

std::size_t Object::count(std::string_view key) const {
  return find(key) == end() ? 0 : 1;
}

std::size_t Object::erase(std::string_view key) {
  const auto it = find(key);
  if (it == end()) return 0;
  members_.erase(it);
  return 1;
}

// --- Value ------------------------------------------------------------------

Value::Value(const Value& other) : type_(other.type_) {
  switch (type_) {
    case Type::kNull: break;
    case Type::kBool: bool_ = other.bool_; break;
    case Type::kNumber: num_ = other.num_; break;
    case Type::kString: std::construct_at(&str_, other.str_); break;
    case Type::kArray: std::construct_at(&arr_, other.arr_); break;
    case Type::kObject: std::construct_at(&obj_, other.obj_); break;
  }
}

void Value::release() noexcept {
  switch (type_) {
    case Type::kString: std::destroy_at(&str_); break;
    case Type::kArray: std::destroy_at(&arr_); break;
    case Type::kObject: std::destroy_at(&obj_); break;
    default: break;
  }
}

bool Value::as_bool() const {
  MLSI_ASSERT(is_bool(), "JSON value is not a bool");
  return bool_;
}

double Value::as_number() const {
  MLSI_ASSERT(is_number(), "JSON value is not a number");
  return num_;
}

int Value::as_int() const {
  const double n = as_number();
  MLSI_ASSERT(std::nearbyint(n) == n, "JSON number is not integral");
  return static_cast<int>(n);
}

const std::string& Value::as_string() const {
  MLSI_ASSERT(is_string(), "JSON value is not a string");
  return str_;
}

const Array& Value::as_array() const {
  MLSI_ASSERT(is_array(), "JSON value is not an array");
  return arr_;
}

Array& Value::as_array() {
  MLSI_ASSERT(is_array(), "JSON value is not an array");
  return arr_;
}

const Object& Value::as_object() const {
  MLSI_ASSERT(is_object(), "JSON value is not an object");
  return obj_;
}

Object& Value::as_object() {
  MLSI_ASSERT(is_object(), "JSON value is not an object");
  return obj_;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

int Value::get_int(std::string_view key, int fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_int() : fallback;
}

namespace {

/// read_int() and read_long(): \p type names T in the error message.
template <typename T>
Result<T> read_integer(const Value* v, std::string_view what, T fallback,
                       std::string_view type) {
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument(cat("'", what, "' must be a number"));
  }
  const double n = v->as_number();
  // 2^digits is exact as a double, unlike the maximum of a 64-bit T, so
  // [-2^digits, 2^digits) is exactly T's range.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (std::nearbyint(n) != n || n < -limit || n >= limit) {
    return Status::InvalidArgument(
        cat("'", what, "' must be an integer in ", type, " range, got ", n));
  }
  return static_cast<T>(n);
}

}  // namespace

Result<int> read_int(const Value* v, std::string_view what, int fallback) {
  return read_integer(v, what, fallback, "int");
}

Result<long> read_long(const Value* v, std::string_view what, long fallback) {
  return read_integer(v, what, fallback, "long");
}

double Value::get_number(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

bool Value::get_bool(std::string_view key, bool fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

std::string Value::get_string(std::string_view key, std::string fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

namespace {

/// A string character written as itself, outside any escape.
bool plain(char c) {
  return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  std::size_t i = 0;
  while (i < s.size()) {
    const std::size_t run = i;
    while (i < s.size() && plain(s[i])) ++i;
    out.append(s, run, i - run);
    if (i == s.size()) break;
    const char c = s[i++];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out += '"';
}

/// Integral values below 1e15 print as integers; every other value prints
/// as printf's "%.17g" would, which round-trips every double.
void append_number(std::string& out, double n) {
  char buf[32];
  const std::to_chars_result r =
      std::nearbyint(n) == n && std::fabs(n) < 1e15
          ? std::to_chars(buf, buf + sizeof buf, static_cast<long long>(n))
          : std::to_chars(buf, buf + sizeof buf, n,
                          std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: append_number(out, num_); return;
    case Type::kString: append_escaped(out, str_); return;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(out, indent, depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        append_escaped(out, k);
        out += indent > 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent parser over a string_view with a cursor. The elements
/// of the open arrays and the members of the open objects wait on two
/// stacks the parser owns, so each array and object is built once, at its
/// final size, when it closes.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> run() {
    skip_ws();
    Value v;
    if (!parse_value(v)) return error_;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
      return error_;
    }
    return v;
  }

 private:
  /// Records the error at the cursor; returns false for the caller to pass
  /// up.
  bool fail(std::string_view msg) {
    error_ = Status::InvalidArgument(
        cat("JSON parse error at offset ", pos_, ": ", msg));
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool eat_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  bool parse_literal(std::string_view lit, Value v, Value& out) {
    if (!eat_literal(lit)) return fail("invalid literal");
    out = std::move(v);
    return true;
  }

  bool parse_value(Value& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    // Recursion depth guard: malformed deeply nested input must not
    // overflow the stack.
    if (depth_ > 200) return fail("nesting too deep");
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Value{std::move(s)};
        return true;
      }
      case 't': return parse_literal("true", Value{true}, out);
      case 'f': return parse_literal("false", Value{false}, out);
      case 'n': return parse_literal("null", Value{nullptr}, out);
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    ++depth_;
    eat('{');
    const std::size_t mark = members_.size();
    skip_ws();
    if (!eat('}')) {
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!eat(':')) return fail("expected ':' in object");
        skip_ws();
        Value val;
        if (!parse_value(val)) return false;
        members_.emplace_back(std::move(key), std::move(val));
        skip_ws();
        if (eat(',')) continue;
        if (eat('}')) break;
        return fail("expected ',' or '}' in object");
      }
    }
    --depth_;
    const auto first = members_.begin() + static_cast<std::ptrdiff_t>(mark);
    out = Value{Object::from_members(std::vector<Object::value_type>(
        std::make_move_iterator(first), std::make_move_iterator(members_.end())))};
    members_.erase(first, members_.end());
    return true;
  }

  bool parse_array(Value& out) {
    ++depth_;
    eat('[');
    const std::size_t mark = elements_.size();
    skip_ws();
    if (!eat(']')) {
      while (true) {
        skip_ws();
        Value val;
        if (!parse_value(val)) return false;
        elements_.push_back(std::move(val));
        skip_ws();
        if (eat(',')) continue;
        if (eat(']')) break;
        return fail("expected ',' or ']' in array");
      }
    }
    --depth_;
    const auto first = elements_.begin() + static_cast<std::ptrdiff_t>(mark);
    out = Value{Array(std::make_move_iterator(first),
                      std::make_move_iterator(elements_.end()))};
    elements_.erase(first, elements_.end());
    return true;
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) {
      error_ = Status{StatusCode::kInvalidArgument,
                      cat("expected string at offset ", pos_)};
      return false;
    }
    while (pos_ < text_.size()) {
      const std::size_t run = pos_;
      while (pos_ < text_.size() && plain(text_[pos_])) ++pos_;
      out.append(text_, run, pos_ - run);
      if (pos_ == text_.size()) break;
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') return fail("unescaped control character in string");
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid hex digit in \\u escape");
            }
          }
          // Encode the BMP code point as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    eat('-');
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double v = 0.0;
    if (const auto [end, ec] = std::from_chars(first, last, v);
        ec != std::errc{} || end != last) {
      // from_chars refuses some tokens strtod reads: a leading '+' ("+5")
      // and values out of range ("1e999" is inf, "1e-400" is 0).
      const std::string token{first, last};
      char* token_end = nullptr;
      v = std::strtod(token.c_str(), &token_end);
      if (token_end == nullptr || *token_end != '\0') {
        return fail("invalid number");
      }
    }
    out = Value{v};
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  Status error_;
  std::vector<Value> elements_;
  std::vector<Object::value_type> members_;
};

}  // namespace

Result<Value> parse(std::string_view text) { return Parser{text}.run(); }

Result<Value> parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(cat("cannot open ", path));
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

Status write_file(const std::string& path, const Value& v) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound(cat("cannot open ", path, " for writing"));
  out << v.dump(2) << '\n';
  return out.good() ? Status::Ok()
                    : Status::Internal(cat("short write to ", path));
}

}  // namespace mlsi::json
