#include "support/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace mlsi {

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
void warn(std::string_view msg) {
  const double t_s = static_cast<double>(support::monotonic_us()) / 1e6;
  const std::string line = cat("[mlsi WARN +", fmt_double(t_s, 3), "s t",
                               support::thread_ordinal(), "] ", msg);
  std::fprintf(stderr, "%.*s\n", static_cast<int>(line.size()), line.data());
}
}  // namespace detail

}  // namespace mlsi
