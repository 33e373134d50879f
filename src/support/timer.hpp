#pragma once

/// \file timer.hpp
/// \brief Wall-clock stopwatch and deadline helpers.
///
/// The synthesis engines report program runtime (column T in the paper's
/// tables) and honour solver deadlines; both are expressed through these
/// small types. Deadline is an *absolute* point on the monotonic clock, so
/// it propagates losslessly through nested solves (engine -> MILP -> LP):
/// every layer compares against the same expiry instead of re-deriving a
/// remaining budget from floats.

#include <algorithm>
#include <chrono>
#include <limits>

namespace mlsi {

/// Monotonic stopwatch started at construction.
class Timer {
 public:
  using Clock = std::chrono::steady_clock;

  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Elapsed wall time in seconds.
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed wall time in milliseconds.
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  Clock::time_point start_;
};

namespace support {

/// A wall-clock budget, pinned to an absolute monotonic-clock expiry.
/// Default-constructed (or from a non-positive budget, or one whose expiry
/// the clock cannot represent): no limit.
class Deadline {
 public:
  /// No limit.
  Deadline() = default;

  /// Expires \p budget_seconds from now. A non-positive or NaN budget
  /// means no limit, and so does one past the clock's last representable
  /// instant (about 292 years of steady_clock nanoseconds; +inf included):
  /// converting it would overflow.
  explicit Deadline(double budget_seconds) {
    if (!(budget_seconds > 0)) return;
    const Timer::Clock::time_point now = Timer::Clock::now();
    const std::chrono::duration<double, Timer::Clock::period> budget =
        std::chrono::duration<double>(budget_seconds);
    const Timer::Clock::duration headroom =
        Timer::Clock::time_point::max() - now;
    if (!(budget.count() < static_cast<double>(headroom.count()))) return;
    limited_ = true;
    expiry_ = now + Timer::Clock::duration(
                        static_cast<Timer::Clock::rep>(budget.count()));
  }

  /// Named constructors, reading better at call sites.
  static Deadline unlimited() { return Deadline{}; }
  static Deadline after(double budget_seconds) {
    return Deadline{budget_seconds};
  }
  static Deadline at(Timer::Clock::time_point expiry) {
    Deadline d;
    d.limited_ = true;
    d.expiry_ = expiry;
    return d;
  }

  /// The earlier of two deadlines — how a parent budget propagates into a
  /// nested solve that may also carry its own limit.
  static Deadline sooner(const Deadline& a, const Deadline& b) {
    if (!a.limited_) return b;
    if (!b.limited_) return a;
    return at(std::min(a.expiry_, b.expiry_));
  }

  [[nodiscard]] bool limited() const { return limited_; }

  /// The expiry instant; meaningful only when limited(). Waits take it as
  /// is (condition_variable::wait_until), so no budget arithmetic can
  /// overflow near the clock's range.
  [[nodiscard]] Timer::Clock::time_point expiry() const { return expiry_; }

  [[nodiscard]] bool expired() const {
    return limited_ && Timer::Clock::now() >= expiry_;
  }

  /// Seconds until expiry (infinity when unlimited, <= 0 when expired).
  [[nodiscard]] double remaining_seconds() const {
    if (!limited_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(expiry_ - Timer::Clock::now()).count();
  }

 private:
  bool limited_ = false;
  Timer::Clock::time_point expiry_{};
};

}  // namespace support

using support::Deadline;

}  // namespace mlsi
