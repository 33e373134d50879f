#pragma once

/// \file metrics.hpp
/// \brief Process-wide registry of named counters, gauges, fixed-bucket
/// histograms and time-stamped series.
///
/// Where the tracer answers "where did the wall clock go", the metrics
/// registry answers "how often / how much": LP pivot time per solve,
/// refactorization intervals, Harris-ratio degenerate steps, B&B node
/// depths — and the incumbent/bound-gap timeline as time-stamped series.
///
/// Overhead contract: sites guard with metrics_enabled() (one relaxed
/// atomic load when off, never allocating). When on, hot paths record
/// per-*solve* aggregates, not per-pivot samples — the registry lookup is
/// a small map probe and each instrument update is a relaxed atomic (or a
/// short mutex hold for series). Instruments are created on first use and
/// live forever; references returned by the registry stay valid, so hot
/// loops may cache them.
///
/// The snapshot() schema (also written by mlsi_synth --metrics-out,
/// embedded in bench telemetry, and served live by mlsi_serve's
/// {"cmd":"stats"} endpoint) is:
/// \code{.json}
/// {
///   "schema": 2,
///   "counters":   {"lp.solves": 42, ...},
///   "gauges":     {"...": 1.5, ...},
///   "histograms": {"lp.pivot_time_us":
///                    {"edges": [...], "counts": [...], "count": n, "sum": s,
///                     "quantiles": {"p50": ..., "p95": ..., "p99": ...}}},
///   "series":     {"search.incumbent": [[t_seconds, value], ...], ...}
/// }
/// \endcode
/// Histogram "counts" has edges.size() + 1 entries; counts[i] holds
/// observations v <= edges[i], the final entry the overflow bucket.
/// Schema history: v1 had no "quantiles"; v2 (this) adds them. Validators
/// (tools/obs_check) accept any version <= the pinned schema file's, so
/// old snapshots stay green — the schema only grows.

#include <atomic>
#include <deque>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json.hpp"
#include "support/status.hpp"

namespace mlsi::obs {

namespace detail {
extern std::atomic<bool> g_metrics_on;

/// Lock-free add for pre-C++20-hardware-support atomic doubles.
inline void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// The one check every instrumentation site pays when metrics are off.
inline bool metrics_enabled() {
  return detail::g_metrics_on.load(std::memory_order_relaxed);
}

/// Version stamped into snapshot()["schema"] and pinned by
/// scripts/metrics_schema.json.
inline constexpr int kMetricsSchemaVersion = 2;

/// Estimates the \p q quantile (q in [0,1]) of a fixed-bucket histogram by
/// linear interpolation inside the bucket holding the target rank, the
/// same way Prometheus' histogram_quantile does. \p counts must have
/// edges.size() + 1 entries (last = overflow). Assumes non-negative
/// observations (every mlsi histogram records µs or counts), so the first
/// bucket interpolates from 0. Ranks landing in the overflow bucket clamp
/// to the last finite edge. Returns 0.0 for an empty histogram.
[[nodiscard]] double estimate_quantile(const std::vector<double>& edges,
                                       const std::vector<long>& counts,
                                       double q);

/// Monotonically increasing count (events, pivots, nodes).
class Counter {
 public:
  void add(long delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] long value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram; bucket upper edges are set at creation and
/// immutable afterwards. observe() is wait-free (relaxed atomics).
class Histogram {
 public:
  /// \p upper_edges must be strictly ascending. An implicit +inf overflow
  /// bucket is appended.
  explicit Histogram(std::vector<double> upper_edges);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& edges() const { return edges_; }
  [[nodiscard]] std::vector<long> counts() const;
  /// estimate_quantile() over a single coherent load of the buckets.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] long count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Zeroes every bucket; the edges stay.
  void reset();

 private:
  std::vector<double> edges_;
  std::vector<std::atomic<long>> buckets_;  ///< edges_.size() + 1
  std::atomic<long> count_{0};
  std::atomic<double> sum_{0.0};
};

/// (timestamp, value) timeline — the incumbent trajectory and the
/// optimality-gap series. Timestamps use the shared monotonic epoch.
class Series {
 public:
  /// Points kept: the most recent ones, oldest dropped first. A daemon
  /// (mlsi_serve keeps metrics on for its whole life) records into the
  /// same series on every solve, and each stats poll and the exit
  /// --metrics-out serialize all of it; 1024 points bound that at about
  /// 20 KB per series while holding every point of one solve's timeline
  /// (a perfbench hard case records at most 4).
  static constexpr std::size_t kMaxPoints = 1024;

  /// Appends (now, value).
  void record(double value);
  /// Appends with an explicit timestamp (tests, replay).
  void record_at(double t_seconds, double value);

  [[nodiscard]] std::vector<std::pair<double, double>> points() const;
  [[nodiscard]] bool empty() const;
  /// Last recorded value; 0.0 when empty (check empty() first).
  [[nodiscard]] double last_value() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::deque<std::pair<double, double>> points_;  ///< oldest first
};

/// Registry of all instruments. Instruments are created on first lookup
/// (histograms with the edges passed on that first call) and never die.
class Metrics {
 public:
  static Metrics& instance();

  void enable();
  void disable();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// \p upper_edges is consulted only when \p name is first created.
  Histogram& histogram(std::string_view name,
                       std::initializer_list<double> upper_edges);
  Series& series(std::string_view name);

  /// True when an instrument of that kind/name already exists (does not
  /// create one — snapshot consumers use this to probe without mutating).
  [[nodiscard]] bool has_series(std::string_view name) const;

  [[nodiscard]] json::Value snapshot() const;
  /// snapshot() serialized compactly — the wire form served by
  /// mlsi_serve's stats endpoint. Thread-safe like snapshot(): the
  /// registry lock covers the walk, and each instrument read is atomic,
  /// so this is safe to call while every instrument is being mutated.
  [[nodiscard]] std::string snapshot_json() const;
  [[nodiscard]] Status write(const std::string& path) const;

  /// Zeroes every instrument *in place* (instruments are never destroyed,
  /// so cached references — including function-local statics at hot call
  /// sites — stay valid across resets). Tests and bench cases call this
  /// between runs.
  void reset();

 private:
  Metrics() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Series>, std::less<>> series_;
};

inline Metrics& metrics() { return Metrics::instance(); }

}  // namespace mlsi::obs
