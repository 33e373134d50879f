#pragma once

/// \file log.hpp
/// \brief Tiny leveled logger with monotonic timestamps and thread ids.
///
/// Synthesis runs can take minutes on large unfixed-binding models; the
/// engines emit progress at kInfo, internals at kDebug. The default level
/// is kWarn so that library users see nothing unless they opt in.
///
/// Every line carries a monotonic timestamp (seconds since process start)
/// and the emitting thread's ordinal, so interleaved output from worker
/// threads stays attributable. Two formats are available (set_log_format):
/// the human-readable default and a JSONL mode for machine consumers. Output
/// goes to stderr in a single fprintf per line (lines from concurrent
/// threads never interleave mid-line) unless a sink is installed
/// (set_log_sink) — tests and embedders capture lines that way.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "support/strings.hpp"

namespace mlsi {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are discarded.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Line format: human-readable text (default) or one JSON object per line
/// with "t" (seconds), "tid", "level" and "msg" fields.
enum class LogFormat { kText, kJsonl };
void set_log_format(LogFormat format);
LogFormat log_format();

/// Receives every fully formatted line (no trailing newline) that passes
/// the level threshold. Installing an empty function restores the default
/// stderr writer. The sink is called under an internal mutex: thread-safe,
/// but it must not log re-entrantly.
using LogSink = std::function<void(LogLevel level, std::string_view line)>;
void set_log_sink(LogSink sink);

namespace support {

/// Small sequential id for the calling thread (first caller gets 0).
/// Stable for the thread's lifetime; ids of exited threads are not reused.
int thread_ordinal();

/// Microseconds since the process-wide monotonic epoch (the first call into
/// the logging/observability layer). Shared by log lines and trace events
/// so their timelines align.
std::int64_t monotonic_us();

}  // namespace support

namespace detail {
void log_emit(LogLevel level, std::string_view msg);
}

template <typename... Args>
void log_debug(const Args&... args) {
  if (log_level() <= LogLevel::kDebug) {
    detail::log_emit(LogLevel::kDebug, cat(args...));
  }
}

template <typename... Args>
void log_info(const Args&... args) {
  if (log_level() <= LogLevel::kInfo) {
    detail::log_emit(LogLevel::kInfo, cat(args...));
  }
}

template <typename... Args>
void log_warn(const Args&... args) {
  if (log_level() <= LogLevel::kWarn) {
    detail::log_emit(LogLevel::kWarn, cat(args...));
  }
}

template <typename... Args>
void log_error(const Args&... args) {
  if (log_level() <= LogLevel::kError) {
    detail::log_emit(LogLevel::kError, cat(args...));
  }
}

}  // namespace mlsi
