#include "support/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "support/json.hpp"

namespace mlsi {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::atomic<LogFormat> g_format{LogFormat::kText};

// The sink swaps under a mutex; the same mutex serializes sink calls so a
// capturing test never observes torn writes. The default stderr path does
// not take it — one fprintf per line is already atomic enough.
std::mutex g_sink_mutex;
LogSink g_sink;  // empty = stderr
std::atomic<bool> g_sink_set{false};

std::string_view level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}

std::string_view level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

void set_log_format(LogFormat format) { g_format.store(format); }
LogFormat log_format() { return g_format.load(); }

void set_log_sink(LogSink sink) {
  const bool set = static_cast<bool>(sink);
  std::lock_guard lock(g_sink_mutex);
  g_sink = std::move(sink);
  g_sink_set.store(set, std::memory_order_release);
}

namespace support {

int thread_ordinal() {
  static std::atomic<int> next{0};
  thread_local const int ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::int64_t monotonic_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch)
      .count();
}

}  // namespace support

namespace detail {
void log_emit(LogLevel level, std::string_view msg) {
  const double t_s = static_cast<double>(support::monotonic_us()) / 1e6;
  const int tid = support::thread_ordinal();

  std::string line;
  if (g_format.load() == LogFormat::kJsonl) {
    json::Object obj;
    obj["t"] = json::Value{t_s};
    obj["tid"] = json::Value{tid};
    obj["level"] = json::Value{level_name(level)};
    obj["msg"] = json::Value{msg};
    line = json::Value{std::move(obj)}.dump();
  } else {
    line = cat("[mlsi ", level_tag(level), " +", fmt_double(t_s, 3), "s t",
               tid, "] ", msg);
  }

  if (g_sink_set.load(std::memory_order_acquire)) {
    std::lock_guard lock(g_sink_mutex);
    if (g_sink) {
      g_sink(level, line);
      return;
    }
  }
  // One write per line so worker threads never interleave mid-line.
  std::fprintf(stderr, "%.*s\n", static_cast<int>(line.size()), line.data());
}
}  // namespace detail

}  // namespace mlsi
