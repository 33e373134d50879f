#pragma once

/// \file search_log.hpp
/// \brief JSONL log of solver search events (the Chuffed-style search log).
///
/// Exact solvers are diagnosed from their search trajectory: when did the
/// incumbent improve, what got pruned and why. This log streams one JSON
/// object per line:
///
///   {"ev":"incumbent","t":0.0123,"tid":2,"engine":"cp","obj":1012.0,...}
///
/// Every record carries "ev" (event name), "t" (seconds since the shared
/// monotonic epoch) and "tid" (thread ordinal); the remaining fields are
/// event-specific. The event taxonomy is documented in DESIGN.md
/// ("Observability"). Lines are written with one fputs under a mutex, so
/// concurrent searches never interleave mid-line.
///
/// Overhead contract: sites guard with search_log_enabled() — one relaxed
/// atomic load and no allocation when the log is off. Per-node B&B events
/// make this log *verbose* when on; it is an opt-in diagnostic, not a
/// production default.

#include <atomic>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json.hpp"
#include "support/status.hpp"

namespace mlsi::obs {

namespace detail {
extern std::atomic<bool> g_search_log_on;
}  // namespace detail

/// The one check every instrumentation site pays when the log is off.
inline bool search_log_enabled() {
  return detail::g_search_log_on.load(std::memory_order_relaxed);
}

/// One event-specific field.
using LogField = std::pair<std::string_view, json::Value>;

class SearchLog {
 public:
  static SearchLog& instance();

  /// Opens (truncating) \p path and enables the log.
  [[nodiscard]] Status open(const std::string& path);
  /// Captures lines in memory instead of a file (tests, embedders).
  void open_buffered();
  /// Flushes, closes and disables.
  void close();

  /// Serializes one event line. Callers normally go through search_event().
  void emit(std::string_view event, std::initializer_list<LogField> fields);

  [[nodiscard]] std::vector<std::string> buffered_lines() const;

 private:
  SearchLog() = default;

  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  bool buffered_ = false;
  std::vector<std::string> lines_;
};

/// Emits \p event when the log is enabled. NOTE: the initializer list (and
/// any json::Value strings in it) is built before this check — hot per-node
/// call sites must guard with search_log_enabled() themselves.
inline void search_event(std::string_view event,
                         std::initializer_list<LogField> fields) {
  if (search_log_enabled()) SearchLog::instance().emit(event, fields);
}

}  // namespace mlsi::obs
