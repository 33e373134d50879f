#include "obs/metrics.hpp"

#include <algorithm>

#include "support/log.hpp"
#include "support/strings.hpp"

namespace mlsi::obs {

namespace detail {
std::atomic<bool> g_metrics_on{false};
}  // namespace detail

Histogram::Histogram(std::vector<double> upper_edges)
    : edges_(std::move(upper_edges)), buckets_(edges_.size() + 1) {
  MLSI_ASSERT(std::is_sorted(edges_.begin(), edges_.end()),
              "histogram edges must be ascending");
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), v);
  const auto idx = static_cast<std::size_t>(it - edges_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<long> Histogram::counts() const {
  std::vector<long> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::quantile(double q) const {
  return estimate_quantile(edges_, counts(), q);
}

double estimate_quantile(const std::vector<double>& edges,
                         const std::vector<long>& counts, double q) {
  // Rank against the counts vector's own total, not a separately loaded
  // count(): under concurrent observe() the two can disagree, and the
  // bucket sum is the one the scan below is consistent with.
  long total = 0;
  for (const long c : counts) total += std::max(c, 0L);
  if (total <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(std::max(counts[i], 0L));
    if (in_bucket > 0.0 && cum + in_bucket >= target) {
      if (i >= edges.size()) {  // overflow bucket: clamp to last finite edge
        return edges.empty() ? 0.0 : edges.back();
      }
      const double lo = i == 0 ? 0.0 : edges[i - 1];
      const double hi = edges[i];
      const double frac = std::clamp((target - cum) / in_bucket, 0.0, 1.0);
      return lo + (hi - lo) * frac;
    }
    cum += in_bucket;
  }
  return edges.empty() ? 0.0 : edges.back();
}

void Series::record(double value) {
  record_at(static_cast<double>(support::monotonic_us()) / 1e6, value);
}

void Series::record_at(double t_seconds, double value) {
  std::lock_guard lock(mutex_);
  if (points_.size() == kMaxPoints) points_.pop_front();
  points_.emplace_back(t_seconds, value);
}

std::vector<std::pair<double, double>> Series::points() const {
  std::lock_guard lock(mutex_);
  return {points_.begin(), points_.end()};
}

bool Series::empty() const {
  std::lock_guard lock(mutex_);
  return points_.empty();
}

double Series::last_value() const {
  std::lock_guard lock(mutex_);
  return points_.empty() ? 0.0 : points_.back().second;
}

void Series::reset() {
  std::lock_guard lock(mutex_);
  points_.clear();
}

Metrics& Metrics::instance() {
  static Metrics metrics;
  return metrics;
}

void Metrics::enable() {
  detail::g_metrics_on.store(true, std::memory_order_relaxed);
}

void Metrics::disable() {
  detail::g_metrics_on.store(false, std::memory_order_relaxed);
}

Counter& Metrics::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string{name}, std::make_unique<Counter>())
              .first->second;
}

Gauge& Metrics::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string{name}, std::make_unique<Gauge>())
              .first->second;
}

Histogram& Metrics::histogram(std::string_view name,
                              std::initializer_list<double> upper_edges) {
  std::lock_guard lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string{name},
                       std::make_unique<Histogram>(
                           std::vector<double>(upper_edges)))
              .first->second;
}

Series& Metrics::series(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = series_.find(name);
  if (it != series_.end()) return *it->second;
  return *series_.emplace(std::string{name}, std::make_unique<Series>())
              .first->second;
}

bool Metrics::has_series(std::string_view name) const {
  std::lock_guard lock(mutex_);
  return series_.find(name) != series_.end();
}

json::Value Metrics::snapshot() const {
  std::lock_guard lock(mutex_);
  json::Object doc;
  doc["schema"] = json::Value{kMetricsSchemaVersion};

  json::Object counters;
  for (const auto& [name, c] : counters_) {
    counters[name] = json::Value{static_cast<double>(c->value())};
  }
  doc["counters"] = json::Value{std::move(counters)};

  json::Object gauges;
  for (const auto& [name, g] : gauges_) {
    gauges[name] = json::Value{g->value()};
  }
  doc["gauges"] = json::Value{std::move(gauges)};

  json::Object histograms;
  for (const auto& [name, h] : histograms_) {
    json::Object ho;
    json::Array edges;
    for (const double e : h->edges()) edges.emplace_back(e);
    ho["edges"] = json::Value{std::move(edges)};
    const std::vector<long> bucket_counts = h->counts();
    json::Array counts;
    for (const long c : bucket_counts) {
      counts.emplace_back(static_cast<double>(c));
    }
    ho["counts"] = json::Value{std::move(counts)};
    ho["count"] = json::Value{static_cast<double>(h->count())};
    ho["sum"] = json::Value{h->sum()};
    json::Object quantiles;
    quantiles["p50"] =
        json::Value{estimate_quantile(h->edges(), bucket_counts, 0.50)};
    quantiles["p95"] =
        json::Value{estimate_quantile(h->edges(), bucket_counts, 0.95)};
    quantiles["p99"] =
        json::Value{estimate_quantile(h->edges(), bucket_counts, 0.99)};
    ho["quantiles"] = json::Value{std::move(quantiles)};
    histograms[name] = json::Value{std::move(ho)};
  }
  doc["histograms"] = json::Value{std::move(histograms)};

  json::Object series;
  for (const auto& [name, s] : series_) {
    json::Array pts;
    for (const auto& [t, v] : s->points()) {
      pts.emplace_back(json::Array{json::Value{t}, json::Value{v}});
    }
    series[name] = json::Value{std::move(pts)};
  }
  doc["series"] = json::Value{std::move(series)};
  return json::Value{std::move(doc)};
}

std::string Metrics::snapshot_json() const { return snapshot().dump(); }

Status Metrics::write(const std::string& path) const {
  return json::write_file(path, snapshot());
}

void Metrics::reset() {
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
  for (const auto& [name, s] : series_) s->reset();
}

}  // namespace mlsi::obs
