// Tests for the execution subsystem (support/executor.hpp, the Deadline
// extensions in support/timer.hpp, the BoundedQueue behind serve's
// admission control) and the ArgParser. The ThreadPool / StopToken /
// BoundedQueue tests are the ones the ThreadSanitizer build
// (-DMLSI_SANITIZE=thread) is aimed at.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "support/argparse.hpp"
#include "support/executor.hpp"
#include "support/queue.hpp"
#include "support/timer.hpp"

namespace mlsi::support {
namespace {

TEST(DeadlineTest, DefaultIsUnlimited) {
  const Deadline d;
  EXPECT_FALSE(d.limited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.remaining_seconds() > 1e18);
}

TEST(DeadlineTest, NonPositiveBudgetMeansUnlimited) {
  EXPECT_FALSE(Deadline::after(0.0).limited());
  EXPECT_FALSE(Deadline::after(-5.0).limited());
  EXPECT_FALSE(Deadline::unlimited().limited());
}

TEST(DeadlineTest, TinyBudgetExpires) {
  const Deadline d = Deadline::after(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(d.limited());
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.remaining_seconds(), 0.0);
}

TEST(DeadlineTest, SoonerPicksTheEarlierExpiry) {
  const Deadline early = Deadline::after(1e-9);
  const Deadline late = Deadline::after(3600.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));

  EXPECT_TRUE(Deadline::sooner(early, late).expired());
  EXPECT_TRUE(Deadline::sooner(late, early).expired());
  // Unlimited never wins the min.
  EXPECT_TRUE(Deadline::sooner(Deadline{}, early).expired());
  EXPECT_FALSE(Deadline::sooner(Deadline{}, late).expired());
  EXPECT_FALSE(Deadline::sooner(Deadline{}, Deadline{}).limited());
}

TEST(StopTokenTest, DefaultTokenNeverStops) {
  const StopToken token;
  EXPECT_FALSE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
}

TEST(StopTokenTest, SourceTripsItsTokens) {
  StopSource source;
  const StopToken token = source.token();
  EXPECT_TRUE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
  source.request_stop();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(source.stop_requested());
  // Copies observe the same flag.
  const StopToken copy = token;
  EXPECT_TRUE(copy.stop_requested());
}

TEST(StopTokenTest, TokenOutlivesSource) {
  StopToken token;
  {
    StopSource source;
    token = source.token();
    source.request_stop();
  }
  EXPECT_TRUE(token.stop_requested());
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
  }  // destructor must also join cleanly with an idle queue
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // no wait_idle: teardown itself must run everything
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WaitIdleIsReusable) {
  std::atomic<int> counter{0};
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 20 * (round + 1));
  }
}

TEST(ThreadPoolTest, ClampsThreadCountAndResolvesJobs) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
  EXPECT_EQ(ThreadPool::resolve_jobs(3), 3);
  EXPECT_EQ(ThreadPool::resolve_jobs(0), ThreadPool::hardware_threads());
  EXPECT_EQ(ThreadPool::resolve_jobs(-2), ThreadPool::hardware_threads());
}

TEST(ThreadPoolTest, StopTokenCancelsCooperativeWork) {
  // The cancellation pattern: workers poll a token, a coordinator trips
  // it, everyone unwinds promptly.
  StopSource cancel;
  std::atomic<int> unwound{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 4; ++i) {
      pool.submit([token = cancel.token(), &unwound] {
        while (!token.stop_requested()) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        unwound.fetch_add(1);
      });
    }
    cancel.request_stop();
    pool.wait_idle();
  }
  EXPECT_EQ(unwound.load(), 4);
}

// --- ArgParser --------------------------------------------------------------

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return std::vector<const char*>(args);
}

TEST(ArgParserTest, FlagsOptionsAndPositionals) {
  const auto argv = argv_of({"tool", "case.json", "--quiet", "--svg",
                             "out.svg", "--time-limit", "2.5"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(args.flag("--quiet"));
  EXPECT_FALSE(args.flag("--verbose"));
  EXPECT_EQ(args.option("--svg").value_or(""), "out.svg");
  EXPECT_FALSE(args.option("--json").has_value());
  EXPECT_DOUBLE_EQ(args.number("--time-limit", 120.0), 2.5);
  EXPECT_DOUBLE_EQ(args.number("--jobs", 4.0), 4.0);
  ASSERT_TRUE(args.finish(1).ok());
  EXPECT_EQ(args.positionals().front(), "case.json");
}

TEST(ArgParserTest, LastOccurrenceWins) {
  const auto argv = argv_of({"tool", "--engine", "cp", "--engine", "iqp"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.option("--engine").value_or(""), "iqp");
  EXPECT_TRUE(args.finish(0).ok());
}

TEST(ArgParserTest, MissingValueIsAnError) {
  const auto argv = argv_of({"tool", "--svg"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  EXPECT_FALSE(args.option("--svg").has_value());
  const Status s = args.finish(0);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ArgParserTest, UnknownOptionIsAnError) {
  const auto argv = argv_of({"tool", "case.json", "--frobnicate"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  const Status s = args.finish(1);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("--frobnicate"), std::string::npos);
}

TEST(ArgParserTest, NonNumericNumberIsAnError) {
  const auto argv = argv_of({"tool", "--jobs", "many"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  (void)args.number("--jobs", 1.0);
  EXPECT_FALSE(args.finish(0).ok());
}

TEST(ArgParserTest, PositionalCountIsChecked) {
  const auto argv = argv_of({"tool", "a.json", "b.json"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  EXPECT_FALSE(args.finish(1).ok());
}

TEST(ArgParserTest, NegativeNumbersAreNotOptions) {
  const auto argv = argv_of({"tool", "--time-limit", "-1", "case.json"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  EXPECT_DOUBLE_EQ(args.number("--time-limit", 0.0), -1.0);
  EXPECT_TRUE(args.finish(1).ok());
}

TEST(ArgParserTest, EqualsFormSuppliesTheValue) {
  const auto argv = argv_of({"tool", "--engine=iqp", "--time-limit=2.5",
                             "case.json"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.option("--engine").value_or(""), "iqp");
  EXPECT_DOUBLE_EQ(args.number("--time-limit", 120.0), 2.5);
  ASSERT_TRUE(args.finish(1).ok());
  EXPECT_EQ(args.positionals().front(), "case.json");
}

TEST(ArgParserTest, EqualsAndSpacedFormsMixWithLastWins) {
  const auto argv = argv_of({"tool", "--engine", "cp", "--engine=iqp"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.option("--engine").value_or(""), "iqp");
  EXPECT_TRUE(args.finish(0).ok());

  const auto argv2 = argv_of({"tool", "--engine=iqp", "--engine", "cp"});
  ArgParser args2(static_cast<int>(argv2.size()), argv2.data());
  EXPECT_EQ(args2.option("--engine").value_or(""), "cp");
  EXPECT_TRUE(args2.finish(0).ok());
}

TEST(ArgParserTest, EqualsWithEmptyValueIsTheEmptyString) {
  const auto argv = argv_of({"tool", "--svg="});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  const auto svg = args.option("--svg");
  ASSERT_TRUE(svg.has_value());
  EXPECT_EQ(*svg, "");
  EXPECT_TRUE(args.finish(0).ok());
}

TEST(ArgParserTest, UnknownEqualsOptionIsAnError) {
  const auto argv = argv_of({"tool", "--frobnicate=1"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  const Status s = args.finish(0);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("--frobnicate"), std::string::npos);
}

TEST(ArgParserTest, EqualsValueMayContainEquals) {
  const auto argv = argv_of({"tool", "--define=key=value"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.option("--define").value_or(""), "key=value");
  EXPECT_TRUE(args.finish(0).ok());
}

// --- BoundedQueue -----------------------------------------------------------

TEST(BoundedQueueTest, TryPushRejectsWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full: the admission-control signal
  EXPECT_EQ(queue.size(), 2u);

  ASSERT_EQ(queue.pop().value_or(-1), 1);
  EXPECT_TRUE(queue.try_push(3));  // pop made room
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  queue.close();
  EXPECT_FALSE(queue.try_push(3));  // closed: rejects new work...
  EXPECT_EQ(queue.pop().value_or(-1), 1);  // ...but delivers what it accepted
  EXPECT_EQ(queue.pop().value_or(-1), 2);
  EXPECT_FALSE(queue.pop().has_value());  // closed and drained
}

TEST(BoundedQueueTest, PopBlocksUntilAnItemArrives) {
  BoundedQueue<int> queue(1);
  std::thread producer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(queue.try_push(42));
  });
  EXPECT_EQ(queue.pop().value_or(-1), 42);  // blocks until the push lands
  producer.join();
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumers) {
  BoundedQueue<int> queue(1);
  std::thread consumer([&queue] { EXPECT_FALSE(queue.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.close();
  consumer.join();
}

// TSan target: every item pushed by any producer reaches exactly one
// consumer, through a deliberately tiny queue to force blocking on both
// sides.
TEST(BoundedQueueTest, MpmcDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  BoundedQueue<int> queue(2);
  std::atomic<long> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(queue.push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&queue, &sum, &received] {
      while (auto item = queue.pop()) {
        sum.fetch_add(*item, std::memory_order_relaxed);
        received.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  queue.close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(sum.load(), static_cast<long>(total) * (total - 1) / 2);
}

}  // namespace
}  // namespace mlsi::support
