#pragma once

/// \file strings.hpp
/// \brief Small string utilities shared by the I/O and report writers.

#include <algorithm>
#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mlsi {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on \p sep; empty fields are kept. split("a,,b", ',') -> {a, "", b}.
std::vector<std::string> split(std::string_view s, char sep);

/// Joins \p parts with \p sep.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True when \p s begins with \p prefix.
bool starts_with(std::string_view s, std::string_view prefix);

/// Formats a double with \p digits significant decimals, trimming a bare
/// trailing dot ("13.6", "0.273"). Used by the report tables.
std::string fmt_double(double v, int digits = 3);

namespace detail {

/// Digits that std::to_chars wrote into their own buffer.
struct CatDigits {
  char buf[48];
  std::size_t size;
  operator std::string_view() const { return {buf, size}; }  // NOLINT
};

/// One cat() argument as `operator<<` with default flags prints it: a
/// view of a string or char, "1"/"0" for bool, to_chars digits for an
/// integer, and "%g" (general, precision 6) for a floating-point value.
/// Any other type, enums included, goes through a stream.
template <typename T>
auto cat_piece(const T& v) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    return std::string_view{v};
  } else if constexpr (std::is_same_v<T, char> ||
                       std::is_same_v<T, signed char> ||
                       std::is_same_v<T, unsigned char>) {
    return std::string_view{reinterpret_cast<const char*>(&v), 1};
  } else if constexpr (std::is_same_v<T, bool>) {
    return std::string_view{v ? "1" : "0"};
  } else if constexpr (std::is_integral_v<T>) {
    CatDigits d;
    d.size = static_cast<std::size_t>(
        std::to_chars(d.buf, d.buf + sizeof d.buf, v).ptr - d.buf);
    return d;
  } else if constexpr (std::is_floating_point_v<T>) {
    CatDigits d;
    d.size = static_cast<std::size_t>(
        std::to_chars(d.buf, d.buf + sizeof d.buf, v,
                      std::chars_format::general, 6).ptr - d.buf);
    return d;
  } else {
    std::ostringstream out;
    out << v;
    return out.str();
  }
}

/// Joins the pieces into one string allocated at exactly their total size
/// (std::string::reserve would round a short string's capacity up).
template <typename... Pieces>
std::string cat_pieces(const Pieces&... pieces) {
  std::string out((std::string_view{pieces}.size() + ... + 0), '\0');
  char* p = out.data();
  ((p = std::copy_n(std::string_view{pieces}.data(),
                    std::string_view{pieces}.size(), p)),
   ...);
  return out;
}

}  // namespace detail

/// Variadic concatenation, formatting each argument as `operator<<` would:
/// cat("x=", 3, "mm") -> "x=3mm". The result holds no spare capacity.
template <typename... Args>
std::string cat(const Args&... args) {
  return detail::cat_pieces(detail::cat_piece(args)...);
}

/// Left/right padding for fixed-width plain-text tables.
std::string pad_right(std::string s, std::size_t width);
std::string pad_left(std::string s, std::size_t width);

}  // namespace mlsi
