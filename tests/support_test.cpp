// Unit tests for mlsi::support: Status/Result, strings, RNG, JSON, deadline,
// warning lines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

/// What `std::ostringstream << v` prints: the rule cat() must follow.
template <typename T>
std::string streamed(const T& v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// A type that formats itself: cat() must take it through its operator<<.
struct Millimetres {
  double mm;
};
std::ostream& operator<<(std::ostream& out, const Millimetres& m) {
  return out << m.mm << " mm";
}

template <typename T>
void expect_cat_streams_limits() {
  for (const T v : {std::numeric_limits<T>::min(), T{0}, T{1}, T{42},
                    std::numeric_limits<T>::max()}) {
    EXPECT_EQ(cat(v), streamed(v));
  }
}

TEST(StringsTest, CatFormatsEachArgumentAsTheStreamDoes) {
  EXPECT_EQ(cat("x=", 3, "mm"), "x=3mm");
  EXPECT_EQ(cat(std::string{"ab"}, std::string_view{"cd"}, 'e'), "abcde");
  EXPECT_EQ(cat(true, false), streamed(true) + streamed(false));
  expect_cat_streams_limits<signed char>();
  expect_cat_streams_limits<unsigned char>();
  expect_cat_streams_limits<short>();
  expect_cat_streams_limits<unsigned short>();
  expect_cat_streams_limits<int>();
  expect_cat_streams_limits<unsigned>();
  expect_cat_streams_limits<long>();
  expect_cat_streams_limits<unsigned long>();
  expect_cat_streams_limits<long long>();
  expect_cat_streams_limits<unsigned long long>();
  expect_cat_streams_limits<std::size_t>();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {0.1, 1e-5, 1e20, -0.0, inf, -inf,
                         std::numeric_limits<double>::quiet_NaN(), 123456.5,
                         1234567.0, 2.0 / 3.0, -1e-300, DBL_MAX, 5e-324}) {
    EXPECT_EQ(cat(v), streamed(v)) << v;
  }
  EXPECT_EQ(cat(0.1f), streamed(0.1f));
  EXPECT_EQ(cat(1e-7L), streamed(1e-7L));
  EXPECT_EQ(cat(Millimetres{2.5}), "2.5 mm");
  EXPECT_EQ(cat("[", Millimetres{0.25}, "] ", 7u, ' ', -3.5),
            "[0.25 mm] 7 -3.5");
}

TEST(StringsTest, CatHoldsNoSpareCapacity) {
  // As large as the copy ostringstream::str() returned: a short result
  // stays inline, a longer one is allocated at exactly its size.
  for (const std::string& s :
       {cat("m", 123456), cat("module-label-", 1234567),
        cat("{\"id\":\"q", 17, "\",\"case\":", std::string(100, 'x'), "}")}) {
    EXPECT_EQ(s.capacity(), std::string{s}.capacity()) << s;
  }
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

/// The number rule of the text format: integral values below 1e15 as
/// integers, every other value as printf's "%.17g".
std::string number_text(double n) {
  if (std::nearbyint(n) == n && std::fabs(n) < 1e15) {
    return std::to_string(static_cast<long long>(n));
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", n);
  return buf;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(JsonTest, NumbersDumpByTheTextRuleAndParseToStrtodBits) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {0.0,  -0.0, inf,      -inf,   5e-324,
                                -5e-324, DBL_MAX, -DBL_MAX, 1e15 - 1,
                                1e15, 1e15 + 1, -1e15 + 1, -1e15, 0.1, 1e-5};
  Rng rng(20240917);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t b = rng.next_u64();
    double v = 0.0;
    std::memcpy(&v, &b, sizeof v);
    if (!std::isnan(v)) values.push_back(v);
  }
  // Integers, halves and short decimals: the integer path and its edge.
  for (int i = 0; i < 100'000; ++i) {
    const auto k = static_cast<double>(rng.next_below(1ull << 51)) -
                   static_cast<double>(1ull << 50);
    values.push_back(k);
    values.push_back(k / 2);
    values.push_back(k / 1000);
    values.push_back(k * 1e3);
  }
  long mismatches = 0;
  for (const double v : values) {
    const std::string text = json::Value{v}.dump();
    const std::string want = number_text(v);
    if (text != want) {
      if (++mismatches <= 5) ADD_FAILURE() << want << " dumped as " << text;
      continue;
    }
    if (!std::isfinite(v)) continue;
    const auto back = json::parse(text);
    if (!back.ok() || bits(back->as_number()) !=
                          bits(std::strtod(text.c_str(), nullptr))) {
      if (++mismatches <= 5) ADD_FAILURE() << text << " did not parse back";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonTest, NumberTokensOutsideFromCharsParseAsStrtodReadsThem) {
  EXPECT_EQ(json::parse("1e999")->as_number(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(json::parse("-1e999")->as_number(),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(json::parse("+5")->as_number(), 5.0);
  EXPECT_EQ(bits(json::parse("1e-400")->as_number()), bits(0.0));
  EXPECT_EQ(bits(json::parse("-1e-400")->as_number()), bits(-0.0));
  EXPECT_EQ(json::parse("[+1.5e+2]")->as_array()[0].as_number(), 150.0);
  // Non-finite values dump as printf prints them, which is no JSON.
  EXPECT_EQ(json::Value{std::numeric_limits<double>::infinity()}.dump(), "inf");
  EXPECT_FALSE(json::parse("inf").ok());
  for (const auto& [text, message] :
       {std::pair{"1-2", "JSON parse error at offset 3: invalid number"},
        std::pair{"-", "JSON parse error at offset 1: invalid number"},
        std::pair{"[1e]", "JSON parse error at offset 3: invalid number"},
        std::pair{"[1, x]", "JSON parse error at offset 4: expected a value"}}) {
    const auto r = json::parse(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().message(), message);
  }
}

TEST(JsonTest, ValueIsCompact) {
  // A tagged union: the largest member (std::string) plus the tag.
  EXPECT_LE(sizeof(json::Value), sizeof(std::string) + sizeof(double));
}

TEST(JsonTest, ObjectInsertsInAnyOrderDumpInKeyOrder) {
  json::Object obj;
  obj["b"] = json::Value{2};
  obj["a"] = json::Value{1};
  obj[std::string{"d"}] = json::Value{4};
  obj[std::string_view{"c"}] = json::Value{3};
  obj["aa"] = json::Value{"x"};
  obj["a"] = json::Value{10};  // an existing key is assigned, not added
  EXPECT_EQ(json::Value{obj}.dump(), R"({"a":10,"aa":"x","b":2,"c":3,"d":4})");
  EXPECT_EQ(obj.size(), 5u);
  EXPECT_EQ(obj.count("aa"), 1u);
  EXPECT_EQ(obj.erase("aa"), 1u);
  EXPECT_EQ(obj.erase("aa"), 0u);
  EXPECT_EQ(obj.count("aa"), 0u);
  EXPECT_EQ(obj.find("zz"), obj.end());
  ASSERT_NE(obj.find("c"), obj.end());
  EXPECT_EQ(obj.find("c")->second.as_int(), 3);
  std::string keys;
  for (const auto& [key, value] : obj) keys += key;
  EXPECT_EQ(keys, "abcd");
  EXPECT_EQ(json::Value{obj}.dump(), R"({"a":10,"b":2,"c":3,"d":4})");
  EXPECT_FALSE(obj.empty());
  EXPECT_TRUE(json::Object{}.empty());
}

TEST(JsonTest, RepeatedKeysParseToTheLastAndListToTheFirst) {
  const auto parsed = json::parse(R"({"b": 1, "a": 2, "b": 3})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->dump(), R"({"a":2,"b":3})");
  // Past the insertion-sort length too.
  std::string text = "{";
  for (int i = 99; i >= 0; --i) text += cat("\"k", i % 40, "\":", i, ",");
  text += "\"k7\":-1}";
  const auto many = json::parse(text);
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(many->as_object().size(), 40u);
  EXPECT_EQ(many->get_int("k7", 0), -1);
  EXPECT_EQ(many->get_int("k8", 0), 8);
  EXPECT_EQ(many->get_int("k39", 0), 39);
  const json::Object listed{{"k", json::Value{1}}, {"j", json::Value{0}},
                            {"k", json::Value{2}}};
  EXPECT_EQ(json::Value{listed}.dump(), R"({"j":0,"k":1})");
}

TEST(JsonTest, LongObjectInDescendingKeyOrderParsesInLinearithmicTime) {
  // One request line of 80,000 members, each key sorting before the last:
  // a quadratic sort takes tens of seconds here.
  constexpr int kMembers = 80'000;
  std::string line = R"({"id":"q1","case":{)";
  for (int i = kMembers - 1; i >= 0; --i) {
    char key[16];
    std::snprintf(key, sizeof key, "m%06d", i);
    line += cat("\"", key, "\":", i, i > 0 ? "," : "");
  }
  line += "}}";
  const Timer t;
  const auto doc = json::parse(line);
  const double seconds = t.seconds();
  ASSERT_TRUE(doc.ok());
  const json::Object& members = doc->find("case")->as_object();
  ASSERT_EQ(members.size(), static_cast<std::size_t>(kMembers));
  EXPECT_EQ(members.begin()->first, "m000000");
  EXPECT_EQ(doc->find("case")->get_int("m012345", -1), 12345);
  EXPECT_LT(seconds, 2.0);
}

TEST(JsonTest, ValueCopiesAndMovesKeepTheirContents) {
  json::Value doc = *json::parse(R"({"a": [1, "two", {"b": null}], "c": "s"})");
  const json::Value copy = doc;
  json::Value moved = std::move(doc);
  EXPECT_EQ(copy.dump(), moved.dump());
  // Assigning a value from inside itself.
  moved = moved.as_object()["a"];
  EXPECT_EQ(moved.dump(), R"([1,"two",{"b":null}])");
  moved = std::move(moved.as_array()[2]);
  EXPECT_EQ(moved.dump(), R"({"b":null})");
  moved = json::Value{"text"};
  EXPECT_EQ(moved.as_string(), "text");
  EXPECT_EQ(copy.find("c")->as_string(), "s");
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
