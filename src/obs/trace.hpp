#pragma once

/// \file trace.hpp
/// \brief Thread-aware span/event tracer emitting Chrome trace-event JSON.
///
/// Synthesis runs on several threads (a large clockwise CP solve splits its
/// first-pin subtrees over a pool; the server and batch runs solve on
/// workers); end-of-run aggregates cannot show *when* each worker was busy
/// or where wall clock went. This tracer records spans (complete events,
/// ph "X") and instants (ph "i") into per-thread buffers and serializes
/// them as a Chrome trace-event JSON array — loadable in Perfetto /
/// chrome://tracing.
///
/// Overhead contract: when tracing is disabled (the default), every
/// instrumentation site costs one relaxed atomic load and never allocates
/// (obs_test asserts the allocation-free part). When enabled, a span costs
/// two clock reads plus one short uncontended mutex hold on the calling
/// thread's own buffer. Buffers are only merged when write()/to_json() is
/// called, typically at shutdown.
///
/// Timestamps come from support::monotonic_us(), the same epoch the logger
/// stamps lines with, so log and trace timelines align.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_rec.hpp"
#include "support/status.hpp"

namespace mlsi::obs {

namespace detail {
extern std::atomic<bool> g_trace_on;
}  // namespace detail

/// The one check every instrumentation site pays when tracing is off.
inline bool trace_enabled() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// One buffered event. `ph` follows the Chrome trace-event phase codes:
/// 'X' complete (has dur), 'i' instant.
struct TraceEvent {
  std::string name;
  char ph = 'X';
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
};

/// Process-wide trace collector. All methods are thread-safe.
class Tracer {
 public:
  static Tracer& instance();

  void enable();
  void disable();

  /// Appends \p ev to the calling thread's buffer (no-op when disabled).
  void record(TraceEvent ev);

  /// Serializes every buffered event as a Chrome trace JSON array, sorted
  /// by timestamp. Safe to call while other threads are still emitting
  /// (their in-flight events may or may not be included).
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to \p path.
  [[nodiscard]] Status write(const std::string& path) const;

  /// Drops all buffered events (buffers of live threads are kept and
  /// reused). Tests call this between cases.
  void reset();

  [[nodiscard]] std::size_t event_count() const;
  /// Number of distinct threads that have emitted at least one event.
  [[nodiscard]] int distinct_threads() const;

 private:
  struct ThreadBuffer;

  Tracer() = default;
  ThreadBuffer& local_buffer();

  mutable std::mutex mutex_;  ///< guards buffers_ (the registry, not events)
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: records a complete event covering construction..destruction.
/// The const char* overload is the zero-cost-when-disabled form; the
/// std::string overload exists for dynamic labels (CP subtree first pins,
/// request ids) — its argument is built by the caller either way, so
/// reserve it for cold call sites.
///
/// Every span also feeds the flight recorder ('B' at construction, 'E'
/// with dur at destruction) when that is enabled — one instrumentation
/// site serves both facilities. The const char* path stays allocation-free
/// when only the recorder is on (the name is not copied into a
/// std::string unless the tracer itself is enabled).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    const bool traced = trace_enabled();
    const bool recorded = flight_recorder_enabled();
    if (traced || recorded) begin(name, traced, recorded);
  }
  explicit TraceSpan(std::string name) {
    const bool traced = trace_enabled();
    const bool recorded = flight_recorder_enabled();
    if (traced || recorded) {
      name_ = std::move(name);
      start(traced, recorded);
    }
  }
  ~TraceSpan() {
    if (start_us_ >= 0) end();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void begin(const char* name, bool traced, bool recorded);
  void start(bool traced, bool recorded);
  void end();

  std::string name_;
  const char* cname_ = nullptr;  ///< static-name fast path (no allocation)
  std::int64_t start_us_ = -1;
  bool traced_ = false;
  bool recorded_ = false;
};

namespace detail {
void instant(const char* name);
void instant(std::string name);
}  // namespace detail

/// Records an instant event (a point-in-time marker on the thread's track).
inline void trace_instant(const char* name) {
  if (trace_enabled()) detail::instant(name);
}

/// Dynamic-label form for cold sites (e.g. coalescing links carrying
/// request ids); the caller pays the string build only when tracing is on,
/// so guard the construction with trace_enabled().
inline void trace_instant(std::string name) {
  if (trace_enabled()) detail::instant(std::move(name));
}

}  // namespace mlsi::obs
