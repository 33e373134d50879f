#pragma once

// Shared pieces of the benchmark: run options, the metric table and
// result line, order statistics, the in-memory span log of traced runs,
// reference verdicts and the independent design check.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/paths.hpp"
#include "arch/topology.hpp"
#include "support/json.hpp"
#include "synth/spec.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string reference_dir;
  std::string out_dir;  ///< run files: serve_zipf's store, traced runs' spans
};

// --- metrics ---------------------------------------------------------------

class MetricTable {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Prints "name value unit" rows, for people.
  void print_rows() const;
  [[nodiscard]] mlsi::json::Value to_json() const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// What every workload run hands back to main().
struct RunOutcome {
  long attempted = 0;
  long failed = 0;
  MetricTable metrics;
  /// Human-readable extras (failed_frac, exact counts, per-case rows).
  std::vector<std::string> notes;
  /// First few failure descriptions.
  std::vector<std::string> failures;

  /// Counts \p count failed inputs described by \p what.
  void fail(std::string what, long count = 1);
};

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
/// A size field of /proc/self/status ("VmHWM", "VmRSS") in MB.
double proc_status_mb(const std::string& field);

/// Latencies (ms) in fixed-size log-spaced buckets, so the memory a run
/// keeps does not grow with the number of answers. Buckets are 0.1% wide
/// from 100 ns to 1000 s, and values outside clamp to the end buckets. A
/// quantile spreads each bucket's samples evenly over it, so it lies within
/// 0.1% of the exact order statistic.
class LatencyHistogram {
 public:
  void add(double ms);
  void merge(const LatencyHistogram& other);
  [[nodiscard]] long count() const { return count_; }
  /// Linear-interpolated quantile, as quantile() gives it; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  /// Geometric mean of the (clamped) samples, kept exactly.
  [[nodiscard]] double geomean() const;

 private:
  /// The sample of 0-based rank \p rank in sorted order.
  [[nodiscard]] double at_rank(long rank) const;

  std::vector<std::uint32_t> buckets_;  ///< allocated by the first add()
  long count_ = 0;
  double log_sum_ = 0.0;
};

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- spans of traced runs --------------------------------------------------

/// Spans recorded by one thread, kept in memory until the run ends. A span
/// names the layer call it wraps; parent links give self times.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int parent;  ///< index into this log, -1 for a root
    long input;  ///< input (request) id the span belongs to
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  int begin(const char* name, long input);
  void end(int index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time (ms) per span name over spans whose input id lies in
  /// [first_input, last_input).
  [[nodiscard]] std::map<std::string, double> self_ms(long first_input,
                                                      long last_input) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, long input)
      : log_(log), index_(log != nullptr ? log->begin(name, input) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Writes spans as Chrome trace events (at most \p max_spans per log).
void write_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                 std::size_t max_spans);

// --- reference verdicts and design checks ----------------------------------

struct Verdict {
  bool infeasible = false;
  double objective = 0.0;
};

/// Loads reference/<workload>.json: {"entries": [{"name", "verdict",
/// "objective"}]}; an empty map plus an error message on failure.
std::map<std::string, Verdict> load_reference(const std::string& dir,
                                              const std::string& workload,
                                              std::string* error);

/// "" when \p got matches \p expected, else a description.
std::string compare_verdict(const Verdict& expected, const Verdict& got);

/// Rebuilds a design from its result_to_json document and checks it
/// independently of the program's own bookkeeping: the binding, paths and
/// valves name real switch entities; paths are candidate paths between the
/// bound pins; length and objective recompute; pressure groups only share
/// compatible valves; and sim::validate's flood simulation passes.
class DesignChecker {
 public:
  /// "" when the design is sound and its objective matches \p expected.
  std::string check(const mlsi::synth::ProblemSpec& spec,
                    const mlsi::json::Value& doc, const Verdict& expected);

 private:
  struct Model {
    std::unique_ptr<mlsi::arch::SwitchTopology> topo;
    std::unique_ptr<mlsi::arch::PathSet> paths;
  };
  const Model& model_for(int pins_per_side);
  std::map<int, Model> models_;
};

}  // namespace perfbench
