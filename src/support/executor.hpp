#pragma once

/// \file executor.hpp
/// \brief Cooperative cancellation and a worker thread pool.
///
/// The execution model of the parallel synthesis paths (the cp engine's
/// split of a clockwise or unfixed solve over its root units,
/// synth::BatchSynthesizer, serve::Server):
///
///  * StopSource / StopToken — a shared cancellation flag. Solvers never
///    get killed; they poll `token.stop_requested()` at their node loops
///    (CP dive, MILP branch & bound, simplex iterations) and unwind with
///    their best incumbent. Copying a token is cheap and thread-safe.
///  * ThreadPool — a fixed set of workers draining a FIFO task queue.
///    Tasks are plain std::function<void()>; completion is observed with
///    wait_idle() or by the task's own side effects.
///
/// StopToken mirrors std::stop_token's shape but is built on shared_ptr +
/// atomic so a default-constructed token ("never stops") is free and the
/// source can outlive or predecease its tokens safely.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mlsi::support {

class StopSource;

/// Observer end of a cancellation flag. Default-constructed tokens never
/// report stop; tokens from a StopSource report it once request_stop() ran.
class StopToken {
 public:
  StopToken() = default;

  [[nodiscard]] bool stop_requested() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

  /// True when a StopSource is attached (stop can ever be requested).
  [[nodiscard]] bool stop_possible() const { return flag_ != nullptr; }

 private:
  friend class StopSource;
  explicit StopToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Owner end of a cancellation flag.
class StopSource {
 public:
  StopSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_stop() { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stop_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] StopToken token() const { return StopToken{flag_}; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Fixed-size worker pool over a FIFO queue. Threads start in the
/// constructor and join in the destructor; the destructor drains the queue
/// first (submitted work always runs).
class ThreadPool {
 public:
  /// Spawns \p num_threads workers; values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues \p task for execution on some worker.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Detected hardware parallelism, at least 1.
  static int hardware_threads();

  /// Resolves a user job count: n >= 1 is taken as-is, n <= 0 means "use
  /// the hardware parallelism".
  static int resolve_jobs(int n) {
    return n >= 1 ? n : hardware_threads();
  }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int in_flight_ = 0;     ///< tasks popped but not finished (under mutex_)
  bool shutdown_ = false; ///< set once by the destructor (under mutex_)
};

}  // namespace mlsi::support
