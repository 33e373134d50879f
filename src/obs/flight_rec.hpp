#pragma once

/// \file flight_rec.hpp
/// \brief Always-on flight recorder: per-thread ring buffers of recent
/// span records, dumpable from a crash signal handler.
///
/// The tracer and metrics answer questions about runs that *end*; a wedged
/// or crashing daemon never reaches its end-of-session flush. The flight
/// recorder fills that gap: every thread keeps a small fixed ring of its
/// most recent span begin/end records, and the whole set can be dumped
/// as JSONL
///  * from normal code (a request that blew its deadline), and
///  * from an async-signal-safe SIGSEGV/SIGABRT handler
///    (support::install_crash_handler + dump_signal_safe()),
/// so the last thing every thread was doing survives the crash.
///
/// Memory bound: kMaxThreads rings x kRecordsPerThread records x
/// sizeof(FrRecord) (64 B) ~= 1 MiB worst case. A thread takes a ring on
/// its first record and hands it back when it exits; the next new thread
/// reuses the ring handed back longest ago (cleared and stamped with the
/// new tid), so a daemon that keeps starting threads (one per socket
/// connection, a pool per split solve) keeps recording. Only a thread
/// that starts while kMaxThreads others hold rings drops its records.
/// Rings are never freed or grown, so the table the signal handler walks
/// is a fixed array of live pointers. Names are *copied* into the
/// fixed-size record (truncated, sanitized to printable ASCII) so a record
/// never holds a pointer a signal handler could chase into freed memory.
///
/// Overhead contract, matching the rest of mlsi::obs: a record site in a
/// disabled recorder costs one relaxed atomic load and never allocates.
/// When enabled, a record is one uncontended mutex hold on the calling
/// thread's own ring plus a bounded memcpy — no allocation after the
/// thread's ring exists. TraceSpan (trace.hpp) is the only producer: every
/// span site doubles as a flight-recorder site, under the span's static
/// name, and stays allocation-free when only the recorder is on. Instants
/// go to the trace only.
///
/// Dump format: one JSON object per line,
///   {"name":"cp.solve","ph":"B"|"E","ts":<us>,"dur":<us>,"tid":N,"pid":1}
/// Rings are emitted thread by thread, oldest record first, so timestamps
/// are monotonic per tid. Wraparound drops the oldest records, so a thread
/// may open with an unmatched "E" (its "B" rotated out) and a wedged solve
/// shows as a trailing unmatched "B" — that trailing "B" is the point.
/// tools/obs_check --flight-rec validates the format.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "support/status.hpp"

namespace mlsi::obs {

namespace detail {
extern std::atomic<bool> g_flight_rec_on;
}  // namespace detail

/// The one check every record site pays when the recorder is off.
inline bool flight_recorder_enabled() {
  return detail::g_flight_rec_on.load(std::memory_order_relaxed);
}

/// One fixed-size record. \p ph follows the Chrome trace phase codes the
/// rest of obs uses: 'B' span begin, 'E' span end (dur_us = span length).
/// ph == 0 marks an empty slot.
struct FrRecord {
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  char ph = 0;
  char name[47] = {};  ///< NUL-terminated sanitized copy (truncated)
};

class FlightRecorder {
 public:
  static constexpr std::size_t kRecordsPerThread = 256;
  /// Rings in the table: threads holding one at the same time.
  static constexpr std::size_t kMaxThreads = 64;

  static FlightRecorder& instance();

  void enable();
  void disable();

  /// Destination for dump() / dump_signal_safe(); copied into a fixed
  /// buffer so the signal handler never touches std::string. Paths longer
  /// than the buffer are rejected (false).
  bool set_dump_path(const std::string& path);
  [[nodiscard]] const char* dump_path() const { return dump_path_; }

  /// Appends one record to the calling thread's ring (no-op when
  /// disabled). \p name is copied and sanitized; see FrRecord.
  void record(const char* name, char ph, std::int64_t ts_us,
              std::int64_t dur_us);

  /// Writes every ring as JSONL to \p path (normal context: rings are
  /// locked while copied, so this is safe — and TSan-clean — while other
  /// threads keep recording).
  [[nodiscard]] Status dump(const std::string& path) const;
  /// dump() to the configured dump path.
  [[nodiscard]] Status dump() const;

  /// Async-signal-safe dump to the configured path: no locks, no
  /// allocation, only open/write/close. Record contents read concurrently
  /// with writers may be torn (garbage text/numbers, never a wild
  /// pointer) — crash-dump quality, by design.
  void dump_signal_safe() const;

  /// Total records currently buffered (sum over rings, capped per ring).
  [[nodiscard]] std::size_t record_count() const;

  /// Clears every ring in place (rings of live threads are kept). Tests.
  void reset();

 private:
  struct Ring {
    std::mutex mutex;                  ///< guards slot contents for writers
    std::atomic<std::uint64_t> head{0};  ///< total records ever written
    std::array<FrRecord, kRecordsPerThread> records;
    int tid = 0;
  };
  /// A thread's hold on its ring; destroyed at thread exit, it hands the
  /// ring back.
  struct Lease {
    explicit Lease(Ring* held) : ring(held) {}
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Ring* ring;
  };

  FlightRecorder() = default;
  Ring* local_ring();
  /// A new ring while the table has room, else the ring handed back
  /// longest ago; nullptr when every ring is held.
  Ring* acquire_ring();
  void release_ring(Ring* ring);
  void write_rings(int fd, bool lock) const;

  std::atomic<int> ring_count_{0};  ///< table slots filled, <= kMaxThreads
  std::array<std::atomic<Ring*>, kMaxThreads> rings_{};
  std::mutex pool_mutex_;  ///< guards filling the table and free_rings_
  std::deque<Ring*> free_rings_;  ///< handed back, longest ago first
  char dump_path_[256] = {};
};

}  // namespace mlsi::obs
