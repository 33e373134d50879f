#include "support/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/strings.hpp"

namespace mlsi::json {

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

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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
}

void append_number(std::string& out, double n) {
  if (std::nearbyint(n) == n && std::fabs(n) < 1e15) {
    out += std::to_string(static_cast<long long>(n));
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", n);
  out += buf;
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
        if (i > 0) out += indent > 0 ? "," : ",";
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

/// Recursive-descent parser over a string_view with a cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> run() {
    skip_ws();
    auto v = parse_value();
    if (!v.ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status error(const std::string& msg) const {
    return Status::InvalidArgument(
        cat("JSON parse error at offset ", pos_, ": ", msg));
  }
  Result<Value> fail(const std::string& msg) const { return error(msg); }

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

  Result<Value> parse_value() {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    // Recursion depth guard: malformed deeply nested input must not
    // overflow the stack.
    if (depth_ > 200) return fail("nesting too deep");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        auto s = parse_string();
        if (!s.ok()) return s.status();
        return Value{std::move(s.value())};
      }
      case 't':
        if (eat_literal("true")) return Value{true};
        return fail("invalid literal");
      case 'f':
        if (eat_literal("false")) return Value{false};
        return fail("invalid literal");
      case 'n':
        if (eat_literal("null")) return Value{nullptr};
        return fail("invalid literal");
      default: return parse_number();
    }
  }

  Result<Value> parse_object() {
    ++depth_;
    eat('{');
    Object obj;
    skip_ws();
    if (eat('}')) {
      --depth_;
      return Value{std::move(obj)};
    }
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key.ok()) return key.status();
      skip_ws();
      if (!eat(':')) return fail("expected ':' in object");
      skip_ws();
      auto val = parse_value();
      if (!val.ok()) return val;
      obj.insert_or_assign(std::move(key.value()), std::move(val.value()));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) break;
      return fail("expected ',' or '}' in object");
    }
    --depth_;
    return Value{std::move(obj)};
  }

  Result<Value> parse_array() {
    ++depth_;
    eat('[');
    Array arr;
    skip_ws();
    if (eat(']')) {
      --depth_;
      return Value{std::move(arr)};
    }
    while (true) {
      skip_ws();
      auto val = parse_value();
      if (!val.ok()) return val;
      arr.push_back(std::move(val.value()));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) break;
      return fail("expected ',' or ']' in array");
    }
    --depth_;
    return Value{std::move(arr)};
  }

  Result<std::string> parse_string() {
    if (!eat('"')) return Status{StatusCode::kInvalidArgument,
                                 cat("expected string at offset ", pos_)};
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
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
            if (pos_ + 4 > text_.size()) return error("truncated \\u escape");
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
                return error("invalid hex digit in \\u escape");
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
          default: return error("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return error("unescaped control character in string");
      } else {
        out += c;
      }
    }
    return error("unterminated string");
  }

  Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (eat('-')) {
      // sign consumed
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token{text_.substr(start, pos_ - start)};
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("invalid number");
    return Value{v};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
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
