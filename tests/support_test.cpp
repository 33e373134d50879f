// Unit tests for mlsi::support: Status/Result, strings, RNG, JSON, deadline,
// warning lines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <thread>

#include "support/json.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

namespace mlsi {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Infeasible("no routing for flow 3");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInfeasible);
  EXPECT_EQ(s.message(), "no routing for flow 3");
  EXPECT_EQ(s.to_string(), "infeasible: no routing for flow 3");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(to_string(StatusCode::kOk), "ok");
  EXPECT_EQ(to_string(StatusCode::kInvalidArgument), "invalid_argument");
  EXPECT_EQ(to_string(StatusCode::kInfeasible), "infeasible");
  EXPECT_EQ(to_string(StatusCode::kTimeout), "timeout");
  EXPECT_EQ(to_string(StatusCode::kNotFound), "not_found");
  EXPECT_EQ(to_string(StatusCode::kInternal), "internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
  EXPECT_THROW((void)r.value(), std::logic_error);
}

TEST(ResultTest, OkStatusIntoResultThrows) {
  EXPECT_THROW((Result<int>{Status::Ok()}), std::logic_error);
}

TEST(AssertTest, ThrowsAssertionError) {
  EXPECT_THROW(MLSI_ASSERT(false, "boom"), AssertionError);
  EXPECT_NO_THROW(MLSI_ASSERT(true, "fine"));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringsTest, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, FmtDouble) {
  EXPECT_EQ(fmt_double(13.6), "13.6");
  EXPECT_EQ(fmt_double(0.273), "0.273");
  EXPECT_EQ(fmt_double(16.0), "16");
  EXPECT_EQ(fmt_double(0.0), "0");
  EXPECT_EQ(fmt_double(-0.0001, 3), "0");
}

TEST(StringsTest, PadHelpers) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

TEST(RngTest, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextIntInRange) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit over 1000 draws
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, SampleWithoutReplacement) {
  Rng rng(11);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), 9);
  EXPECT_TRUE(rng.sample_without_replacement(5, 0).empty());
}

TEST(TimerTest, MeasuresForwardTime) {
  Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(DeadlineTest, UnlimitedNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.limited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_seconds()));
}

TEST(DeadlineTest, ZeroBudgetMeansUnlimited) {
  Deadline d(0.0);
  EXPECT_FALSE(d.limited());
}

TEST(DeadlineTest, UnrepresentableBudgetMeansUnlimited) {
  // steady_clock counts int64 nanoseconds, so its last instant is about
  // 9.2e9 s away: a budget past it cannot be an expiry and means no limit,
  // where converting it used to overflow into an expiry in the past.
  for (const double budget :
       {1e10, 1e300, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    const Deadline d(budget);
    EXPECT_FALSE(d.limited()) << budget;
    EXPECT_FALSE(d.expired()) << budget;
  }
  const Deadline large(1e9);  // representable: a real, distant limit
  EXPECT_TRUE(large.limited());
  EXPECT_FALSE(large.expired());
  EXPECT_GT(large.remaining_seconds(), 0.99e9);
}

TEST(DeadlineTest, TinyBudgetExpires) {
  Deadline d(1e-9);
  // The deadline is in the past (or passes immediately).
  EXPECT_TRUE(d.limited());
  while (!d.expired()) {
  }
  EXPECT_TRUE(d.expired());
}

// --- JSON ------------------------------------------------------------------

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(json::parse("null")->is_null());
  EXPECT_TRUE(json::parse("true")->as_bool());
  EXPECT_FALSE(json::parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(json::parse("3.25")->as_number(), 3.25);
  EXPECT_EQ(json::parse("-17")->as_int(), -17);
  EXPECT_EQ(json::parse("\"hi\\n\"")->as_string(), "hi\n");
}

TEST(JsonTest, ParseNested) {
  auto doc = json::parse(R"({"flows": [{"from": 1, "to": [7, 10, 11]}],
                             "policy": "clockwise", "pins": 12})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->get_int("pins", 0), 12);
  EXPECT_EQ(doc->get_string("policy", ""), "clockwise");
  const auto& flows = doc->find("flows")->as_array();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].get_int("from", -1), 1);
  EXPECT_EQ(flows[0].find("to")->as_array().size(), 3u);
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(json::parse("{").ok());
  EXPECT_FALSE(json::parse("[1,]").ok());
  EXPECT_FALSE(json::parse("\"unterminated").ok());
  EXPECT_FALSE(json::parse("12 34").ok());
  EXPECT_FALSE(json::parse("{'single': 1}").ok());
  EXPECT_FALSE(json::parse("").ok());
}

TEST(JsonTest, RejectsDeepNesting) {
  std::string evil(500, '[');
  evil += std::string(500, ']');
  EXPECT_FALSE(json::parse(evil).ok());
}

TEST(JsonTest, UnicodeEscape) {
  auto doc = json::parse("\"\\u00e4\\u0041\"");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->as_string(), "\xC3\xA4"
                              "A");
}

TEST(JsonTest, DumpParseRoundTrip) {
  json::Object obj;
  obj["name"] = json::Value{"switch \"A\""};
  obj["pins"] = json::Value{12};
  obj["weights"] = json::Value{json::Array{json::Value{1.5}, json::Value{100}}};
  obj["ok"] = json::Value{true};
  obj["none"] = json::Value{nullptr};
  const json::Value v{obj};

  for (const int indent : {0, 2}) {
    auto round = json::parse(v.dump(indent));
    ASSERT_TRUE(round.ok());
    EXPECT_EQ(round->dump(0), v.dump(0));
  }
}

TEST(JsonTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mlsi_json_test.json";
  json::Object obj;
  obj["x"] = json::Value{1};
  ASSERT_TRUE(json::write_file(path, json::Value{obj}).ok());
  auto back = json::parse_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->get_int("x", 0), 1);
  EXPECT_FALSE(json::parse_file("/nonexistent/file.json").ok());
}

TEST(JsonTest, TypeMismatchAsserts) {
  const json::Value v{3.0};
  EXPECT_THROW((void)v.as_string(), AssertionError);
  EXPECT_THROW((void)json::Value{"s"}.as_number(), AssertionError);
  EXPECT_THROW((void)json::Value{2.5}.as_int(), AssertionError);
}

// --- logger ---------------------------------------------------------------

TEST(LogTest, SinkCapturesFormattedLines) {
  // log_warn writes one line to stderr: "[mlsi WARN +<t>s t<tid>] msg".
  ::testing::internal::CaptureStderr();
  log_warn("watch out ", 42);
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.rfind("[mlsi WARN +", 0), 0u) << out;
  EXPECT_NE(out.find("s t" + std::to_string(support::thread_ordinal()) +
                     "] watch out 42\n"),
            std::string::npos)
      << out;
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1) << out;
}

TEST(LogTest, ThreadOrdinalsAreStableAndDistinct) {
  const int mine = support::thread_ordinal();
  EXPECT_EQ(support::thread_ordinal(), mine);  // stable within a thread
  int other1 = -1;
  int other2 = -1;
  std::thread a([&] { other1 = support::thread_ordinal(); });
  std::thread b([&] { other2 = support::thread_ordinal(); });
  a.join();
  b.join();
  EXPECT_NE(other1, mine);
  EXPECT_NE(other2, mine);
  EXPECT_NE(other1, other2);
}

TEST(LogTest, MonotonicTimestampsDoNotGoBackwards) {
  const auto t0 = support::monotonic_us();
  EXPECT_GE(t0, 0);
  const auto t1 = support::monotonic_us();
  EXPECT_GE(t1, t0);
}

}  // namespace
}  // namespace mlsi
