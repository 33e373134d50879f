#include "obs/flight_rec.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "support/log.hpp"
#include "support/strings.hpp"

namespace mlsi::obs {

namespace detail {
std::atomic<bool> g_flight_rec_on{false};
}  // namespace detail

namespace {

/// Copies \p src into \p dst (capacity \p cap), truncating, replacing
/// anything that would need JSON escaping with '_' so the dump path can
/// emit names verbatim. dst[cap - 1] stays NUL even through torn
/// concurrent reads (the signal path never sees an unterminated name).
void copy_sanitized(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  for (; src[i] != '\0' && i + 1 < cap; ++i) {
    const char c = src[i];
    const bool printable = c >= 0x20 && c != '"' && c != '\\' && c < 0x7f;
    dst[i] = printable ? c : '_';
  }
  for (; i < cap; ++i) dst[i] = '\0';
}

// Formatting helpers for the dump path. Async-signal-safe: fixed buffers,
// no locale, no allocation.

std::size_t append_str(char* buf, std::size_t pos, std::size_t cap,
                       const char* s) {
  while (*s != '\0' && pos + 1 < cap) buf[pos++] = *s++;
  return pos;
}

std::size_t append_i64(char* buf, std::size_t pos, std::size_t cap,
                       std::int64_t v) {
  char tmp[21];
  std::size_t n = 0;
  const bool neg = v < 0;
  std::uint64_t u = neg ? 0 - static_cast<std::uint64_t>(v)
                        : static_cast<std::uint64_t>(v);
  do {
    tmp[n++] = static_cast<char>('0' + u % 10);
    u /= 10;
  } while (u != 0);
  if (neg && pos + 1 < cap) buf[pos++] = '-';
  while (n > 0 && pos + 1 < cap) buf[pos++] = tmp[--n];
  return pos;
}

std::size_t format_record(char* buf, std::size_t cap, const FrRecord& rec,
                          int tid) {
  std::size_t pos = 0;
  pos = append_str(buf, pos, cap, "{\"name\":\"");
  pos = append_str(buf, pos, cap, rec.name);
  pos = append_str(buf, pos, cap, "\",\"ph\":\"");
  const char ph[2] = {rec.ph, '\0'};
  pos = append_str(buf, pos, cap, ph);
  pos = append_str(buf, pos, cap, "\",\"ts\":");
  pos = append_i64(buf, pos, cap, rec.ts_us);
  pos = append_str(buf, pos, cap, ",\"dur\":");
  pos = append_i64(buf, pos, cap, rec.dur_us);
  pos = append_str(buf, pos, cap, ",\"tid\":");
  pos = append_i64(buf, pos, cap, tid);
  pos = append_str(buf, pos, cap, ",\"pid\":1}\n");
  buf[pos] = '\0';
  return pos;
}

void write_all(int fd, const char* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ::ssize_t n = ::write(fd, buf + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed
  return *recorder;
}

void FlightRecorder::enable() {
  detail::g_flight_rec_on.store(true, std::memory_order_relaxed);
}

void FlightRecorder::disable() {
  detail::g_flight_rec_on.store(false, std::memory_order_relaxed);
}

bool FlightRecorder::set_dump_path(const std::string& path) {
  if (path.size() + 1 > sizeof(dump_path_)) return false;
  std::memcpy(dump_path_, path.c_str(), path.size() + 1);
  return true;
}

FlightRecorder::Lease::~Lease() {
  if (ring != nullptr) FlightRecorder::instance().release_ring(ring);
  ring = nullptr;  // a record from a later thread-exit destructor drops
}

FlightRecorder::Ring* FlightRecorder::local_ring() {
  thread_local Lease lease{acquire_ring()};
  return lease.ring;
}

FlightRecorder::Ring* FlightRecorder::acquire_ring() {
  Ring* ring = nullptr;
  {
    std::lock_guard lock(pool_mutex_);
    const int filled = ring_count_.load(std::memory_order_relaxed);
    if (filled < static_cast<int>(kMaxThreads)) {
      ring = new Ring();  // owned by the table, lives forever
      rings_[static_cast<std::size_t>(filled)].store(ring,
                                                      std::memory_order_release);
      ring_count_.store(filled + 1, std::memory_order_release);
    } else if (!free_rings_.empty()) {
      ring = free_rings_.front();
      free_rings_.pop_front();
    } else {
      return nullptr;  // every ring is held by a live thread: drop
    }
  }
  std::lock_guard lock(ring->mutex);
  for (FrRecord& rec : ring->records) rec = FrRecord{};
  ring->head.store(0, std::memory_order_relaxed);
  ring->tid = support::thread_ordinal();
  return ring;
}

void FlightRecorder::release_ring(Ring* ring) {
  // The exited thread's records stay dumpable until a new thread takes
  // the ring.
  std::lock_guard lock(pool_mutex_);
  free_rings_.push_back(ring);
}

void FlightRecorder::record(const char* name, char ph, std::int64_t ts_us,
                            std::int64_t dur_us) {
  if (!flight_recorder_enabled()) return;
  Ring* ring = local_ring();
  if (ring == nullptr) return;  // every ring was held when this thread began
  std::lock_guard lock(ring->mutex);
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  FrRecord& slot = ring->records[head % kRecordsPerThread];
  slot.ts_us = ts_us;
  slot.dur_us = dur_us;
  slot.ph = ph;
  copy_sanitized(slot.name, sizeof(slot.name), name);
  ring->head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::write_rings(int fd, bool lock) const {
  const int limit = ring_count_.load(std::memory_order_acquire);
  char line[192];
  for (int i = 0; i < limit; ++i) {
    Ring* ring =
        rings_[static_cast<std::size_t>(i)].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    if (lock) ring->mutex.lock();
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t count = std::min<std::uint64_t>(head, kRecordsPerThread);
    for (std::uint64_t j = 0; j < count; ++j) {
      const std::uint64_t idx = (head - count + j) % kRecordsPerThread;
      const FrRecord rec = ring->records[idx];  // copy out of the ring
      if (rec.ph == 0) continue;
      const std::size_t len = format_record(line, sizeof(line), rec, ring->tid);
      write_all(fd, line, len);
    }
    if (lock) ring->mutex.unlock();
  }
}

Status FlightRecorder::dump(const std::string& path) const {
  if (path.empty()) return Status::InvalidArgument("empty flight-rec path");
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::NotFound(cat("cannot open flight-rec file '", path, "'"));
  }
  write_rings(fd, /*lock=*/true);
  if (::close(fd) != 0) {
    return Status::Internal(cat("short write to flight-rec file '", path, "'"));
  }
  return Status::Ok();
}

Status FlightRecorder::dump() const { return dump(std::string{dump_path_}); }

void FlightRecorder::dump_signal_safe() const {
  if (dump_path_[0] == '\0') return;
  const int fd = ::open(dump_path_, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  write_rings(fd, /*lock=*/false);
  ::close(fd);
}

std::size_t FlightRecorder::record_count() const {
  const int limit = ring_count_.load(std::memory_order_acquire);
  std::size_t n = 0;
  for (int i = 0; i < limit; ++i) {
    Ring* ring =
        rings_[static_cast<std::size_t>(i)].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    std::lock_guard lock(ring->mutex);
    n += static_cast<std::size_t>(std::min<std::uint64_t>(
        ring->head.load(std::memory_order_relaxed), kRecordsPerThread));
  }
  return n;
}

void FlightRecorder::reset() {
  const int limit = ring_count_.load(std::memory_order_acquire);
  for (int i = 0; i < limit; ++i) {
    Ring* ring =
        rings_[static_cast<std::size_t>(i)].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    std::lock_guard lock(ring->mutex);
    for (FrRecord& rec : ring->records) rec = FrRecord{};
    ring->head.store(0, std::memory_order_relaxed);
  }
}

}  // namespace mlsi::obs
