#pragma once

/// \file trace.hpp
/// \brief Thread-aware span/instant tracer emitting Chrome trace-event JSON:
/// the event API of mlsi::obs.
///
/// Synthesis runs on several threads (a large clockwise or unfixed CP solve
/// splits its root units over a pool; the server and batch runs solve on
/// workers); end-of-run aggregates cannot show *when* each worker was busy
/// or where wall clock went. This tracer records spans (complete events,
/// ph "X") and instants (ph "i") into per-thread buffers and serializes
/// them as a Chrome trace-event JSON array — loadable in Perfetto /
/// chrome://tracing.
///
/// Two emitters, one rule each:
///  * TraceSpan — a timed scope. It goes to the trace and to the flight
///    recorder ('B' at construction, 'E' at destruction), whichever of the
///    two is enabled. The recorder always gets the span's static name; a
///    span may add a trace label carrying an id (`cp.subtree:3`,
///    `serve.req#12`), built only when tracing is on.
///  * trace_instant — a point event, on the trace only, under a static
///    name. It may carry an "args" object, which is where ids go. The
///    solver's search events (`cp.incumbent`, `milp.node`, `milp.prune`,
///    ...) are instants; DESIGN.md "Observability" lists them with their
///    args.
///
/// Overhead contract: when tracing is disabled (the default), every
/// instrumentation site costs one relaxed atomic load and never allocates
/// (obs_test asserts the allocation-free part). An instant with args builds
/// its argument list before the check inside trace_instant, so such sites
/// guard with trace_enabled() themselves. When enabled, a span costs two
/// clock reads plus one short uncontended mutex hold on the calling
/// thread's own buffer. Buffers are only merged when write()/to_json() is
/// called, typically at shutdown.
///
/// Timestamps come from support::monotonic_us(), the same epoch the flight
/// recorder stamps its records with, so the two timelines align.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/flight_rec.hpp"
#include "support/json.hpp"
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
  std::string args;  ///< serialized JSON object, or empty for none
};

/// One named argument of an instant.
using TraceArg = std::pair<std::string_view, json::Value>;

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

/// RAII span: records a complete event covering construction..destruction
/// in the trace, and a 'B'/'E' pair in the flight recorder. \p name must be
/// a static string (a literal): the recorder copies it at both ends, so
/// the recorder-only path never allocates.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : TraceSpan(name, [] { return std::string{}; }) {}

  /// A span whose trace label, \p label(), carries an id. \p label runs
  /// only when tracing is on; the recorder gets the static \p name.
  template <typename LabelFn>
  TraceSpan(const char* name, LabelFn&& label) {
    const bool traced = trace_enabled();
    const bool recorded = flight_recorder_enabled();
    if (traced || recorded) {
      if (traced) label_ = label();
      start(name, traced, recorded);
    }
  }
  ~TraceSpan() {
    if (start_us_ >= 0) end();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void start(const char* name, bool traced, bool recorded);
  void end();

  const char* name_ = nullptr;
  std::string label_;  ///< trace name when non-empty (tracing on only)
  std::int64_t start_us_ = -1;
  bool traced_ = false;
  bool recorded_ = false;
};

namespace detail {
void instant(const char* name, std::initializer_list<TraceArg> args);
}  // namespace detail

/// Records an instant event (a point-in-time marker on the thread's track)
/// under the static \p name, with optional \p args; ids go in the args.
/// The list is built before the enabled check, so a site with args guards
/// the call with trace_enabled().
inline void trace_instant(const char* name,
                          std::initializer_list<TraceArg> args = {}) {
  if (trace_enabled()) detail::instant(name, args);
}

}  // namespace mlsi::obs
