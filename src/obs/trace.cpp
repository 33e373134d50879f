#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "support/log.hpp"
#include "support/strings.hpp"

namespace mlsi::obs {

namespace detail {
std::atomic<bool> g_trace_on{false};
}  // namespace detail

/// Owned jointly by the emitting thread (thread_local shared_ptr) and the
/// tracer registry, so events survive the thread's exit — the CP search's
/// pool threads are joined long before the CLI writes the trace file.
struct Tracer::ThreadBuffer {
  std::mutex mutex;  ///< uncontended except during to_json()/reset()
  std::vector<TraceEvent> events;
  int tid = 0;
};

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() {
  detail::g_trace_on.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  detail::g_trace_on.store(false, std::memory_order_relaxed);
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> local;
  if (!local) {
    local = std::make_shared<ThreadBuffer>();
    local->tid = support::thread_ordinal();
    std::lock_guard lock(mutex_);
    buffers_.push_back(local);
  }
  return *local;
}

void Tracer::record(TraceEvent ev) {
  if (!trace_enabled()) return;
  ThreadBuffer& buf = local_buffer();
  std::lock_guard lock(buf.mutex);
  buf.events.push_back(std::move(ev));
}

std::string Tracer::to_json() const {
  struct Flat {
    TraceEvent ev;
    int tid;
  };
  std::vector<Flat> all;
  {
    std::lock_guard lock(mutex_);
    for (const auto& buf : buffers_) {
      std::lock_guard buf_lock(buf->mutex);
      for (const TraceEvent& ev : buf->events) {
        all.push_back({ev, buf->tid});
      }
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Flat& a, const Flat& b) {
    return a.ev.ts_us < b.ev.ts_us;
  });

  std::string out = "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Flat& f = all[i];
    out += i == 0 ? "\n" : ",\n";
    out += cat("{\"name\":", json::Value{f.ev.name}.dump(),
               ",\"cat\":\"mlsi\",\"ph\":\"", f.ev.ph,
               "\",\"ts\":", f.ev.ts_us, ",");
    if (f.ev.ph == 'X') out += cat("\"dur\":", f.ev.dur_us, ",");
    if (f.ev.ph == 'i') out += "\"s\":\"t\",";
    if (!f.ev.args.empty()) out += cat("\"args\":", f.ev.args, ",");
    out += cat("\"pid\":1,\"tid\":", f.tid, "}");
  }
  out += "\n]\n";
  return out;
}

Status Tracer::write(const std::string& path) const {
  const std::string doc = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::NotFound(cat("cannot open trace file '", path, "'"));
  }
  const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  const int closed = std::fclose(f);
  if (written != doc.size() || closed != 0) {
    return Status::Internal(cat("short write to trace file '", path, "'"));
  }
  return Status::Ok();
}

void Tracer::reset() {
  std::lock_guard lock(mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard buf_lock(buf->mutex);
    buf->events.clear();
  }
}

std::size_t Tracer::event_count() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard buf_lock(buf->mutex);
    n += buf->events.size();
  }
  return n;
}

int Tracer::distinct_threads() const {
  std::lock_guard lock(mutex_);
  int n = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard buf_lock(buf->mutex);
    if (!buf->events.empty()) ++n;
  }
  return n;
}

void TraceSpan::start(const char* name, bool traced, bool recorded) {
  name_ = name;
  traced_ = traced;
  recorded_ = recorded;
  start_us_ = support::monotonic_us();
  if (recorded_) FlightRecorder::instance().record(name_, 'B', start_us_, 0);
}

void TraceSpan::end() {
  const std::int64_t now = support::monotonic_us();
  if (recorded_) {
    FlightRecorder::instance().record(name_, 'E', now, now - start_us_);
  }
  if (traced_) {
    TraceEvent ev;
    ev.name = label_.empty() ? std::string{name_} : std::move(label_);
    ev.ph = 'X';
    ev.ts_us = start_us_;
    ev.dur_us = now - start_us_;
    Tracer::instance().record(std::move(ev));
  }
  start_us_ = -1;
}

namespace detail {

void instant(const char* name, std::initializer_list<TraceArg> args) {
  TraceEvent ev;
  ev.name = name;
  ev.ph = 'i';
  ev.ts_us = support::monotonic_us();
  if (args.size() > 0) {
    json::Object obj;
    for (const auto& [key, value] : args) obj[std::string{key}] = value;
    ev.args = json::Value{std::move(obj)}.dump();
  }
  Tracer::instance().record(std::move(ev));
}

}  // namespace detail

}  // namespace mlsi::obs
