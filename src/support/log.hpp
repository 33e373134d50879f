#pragma once

/// \file log.hpp
/// \brief Warning lines on stderr, and the thread ordinal and monotonic
/// clock that mlsi::obs stamps its events with.
///
/// What a run reports about its search goes through mlsi::obs (trace spans
/// and instants, metrics). A warning is the one message that must reach a
/// user without any flag: a numerically rejected MILP incumbent, a
/// shutdown signal that could not be trapped. Each line reads
///
///   [mlsi WARN +<seconds>s t<thread ordinal>] <message>
///
/// and is written with one fprintf, so lines from worker threads never
/// interleave mid-line.

#include <cstdint>
#include <string_view>

#include "support/strings.hpp"

namespace mlsi {

namespace support {

/// Small sequential id for the calling thread (first caller gets 0).
/// Stable for the thread's lifetime; ids of exited threads are not reused.
int thread_ordinal();

/// Microseconds since the process-wide monotonic epoch (the first call).
/// Shared by warning lines, trace events and flight-recorder records so
/// their timelines align.
std::int64_t monotonic_us();

}  // namespace support

namespace detail {
void warn(std::string_view msg);
}  // namespace detail

template <typename... Args>
void log_warn(const Args&... args) {
  detail::warn(cat(args...));
}

}  // namespace mlsi
