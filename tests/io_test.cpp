// Tests for case-file round-trips, SVG rendering, result serialization and
// the plain-text table writer.

#include <gtest/gtest.h>

#include <map>

#include "arch/crossbar.hpp"
#include "cases/cases.hpp"
#include "io/case_io.hpp"
#include "obs/metrics.hpp"
#include "support/strings.hpp"
#include "io/report.hpp"
#include "io/svg.hpp"
#include "synth/synthesizer.hpp"

namespace mlsi::io {
namespace {

using synth::BindingPolicy;
using synth::ProblemSpec;

TEST(CaseIoTest, ParsesFullDocument) {
  const auto doc = json::parse(R"({
    "name": "demo",
    "pins_per_side": 2,
    "modules": ["in1", "in2", "outA", "outB"],
    "flows": [{"from": "in1", "to": "outA"}, {"from": "in2", "to": "outB"}],
    "conflicts": [[0, 1]],
    "policy": "clockwise",
    "clockwise_order": ["in1", "outA", "in2", "outB"],
    "alpha": 2, "beta": 50, "max_sets": 3
  })");
  ASSERT_TRUE(doc.ok());
  const auto spec = spec_from_json(*doc);
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  EXPECT_EQ(spec->name, "demo");
  EXPECT_EQ(spec->num_modules(), 4);
  EXPECT_EQ(spec->num_flows(), 2);
  EXPECT_EQ(spec->conflicts.size(), 1u);
  EXPECT_EQ(spec->policy, BindingPolicy::kClockwise);
  EXPECT_EQ(spec->clockwise_order.size(), 4u);
  EXPECT_DOUBLE_EQ(spec->alpha, 2.0);
  EXPECT_DOUBLE_EQ(spec->beta, 50.0);
  EXPECT_EQ(spec->max_sets, 3);
}

TEST(CaseIoTest, RejectsBrokenDocuments) {
  EXPECT_FALSE(spec_from_json(json::Value{3.0}).ok());
  EXPECT_FALSE(spec_from_json(*json::parse(R"({"modules": []})")).ok());
  EXPECT_FALSE(spec_from_json(*json::parse(R"({
    "modules": ["a", "b"],
    "flows": [{"from": "a", "to": "zz"}]
  })")).ok());
  EXPECT_FALSE(spec_from_json(*json::parse(R"({
    "modules": ["a", "b"],
    "flows": [{"from": "a", "to": "b"}],
    "policy": "diagonal"
  })")).ok());
  // Valid structure but failing spec validation (self-conflict).
  EXPECT_FALSE(spec_from_json(*json::parse(R"({
    "modules": ["a", "b"],
    "flows": [{"from": "a", "to": "b"}],
    "conflicts": [[0, 0]]
  })")).ok());
}

TEST(CaseIoTest, RejectsHostileMembersWithoutThrowing) {
  // A mistyped or out-of-range member of a request's case must come back as
  // kInvalidArgument: an exception (or a double converted outside int
  // range) would take mlsi_serve down with it.
  const char* const members[] = {
      R"("pins_per_side": 2.5)",
      R"("pins_per_side": "2")",
      R"("max_sets": 1e300)",
      R"("max_sets": -1e300)",
      R"("conflicts": [["x", 1]])",
      R"("conflicts": [[0, 1.5]])",
      R"("clockwise_order": 7)",
      R"("clockwise_order": [7, "a"])",
      R"("fixed_binding": {"a": "x"})",
      R"("fixed_binding": {"a": 1e300})",
  };
  for (const char* member : members) {
    const auto doc = json::parse(
        cat(R"({"modules": ["a", "b"], "flows": [{"from": "a", "to": "b"}], )",
            member, "}"));
    ASSERT_TRUE(doc.ok()) << member;
    Result<ProblemSpec> spec{Status::Internal("not parsed")};
    EXPECT_NO_THROW(spec = spec_from_json(*doc)) << member;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << member;
  }
}

class RoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripTest, BuiltinCasesRoundTrip) {
  const BindingPolicy policy = static_cast<BindingPolicy>(GetParam() % 3);
  ProblemSpec (*factories[])(BindingPolicy) = {
      cases::chip_sw1, cases::chip_sw2, cases::nucleic_acid,
      cases::mrna_isolation, cases::kinase_sw1, cases::kinase_sw2};
  const ProblemSpec original = factories[GetParam() / 3](policy);
  const auto back = spec_from_json(spec_to_json(original));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->name, original.name);
  EXPECT_EQ(back->modules, original.modules);
  EXPECT_EQ(back->num_flows(), original.num_flows());
  for (int i = 0; i < original.num_flows(); ++i) {
    EXPECT_EQ(back->flows[i].src_module, original.flows[i].src_module);
    EXPECT_EQ(back->flows[i].dst_module, original.flows[i].dst_module);
  }
  EXPECT_EQ(back->conflicts, original.conflicts);
  EXPECT_EQ(back->policy, original.policy);
  EXPECT_EQ(back->clockwise_order, original.clockwise_order);
  ASSERT_EQ(back->fixed_binding.size(), original.fixed_binding.size());
  // fixed_binding order may differ (JSON objects sort keys): compare as map.
  std::map<int, int> a, b;
  for (const auto& mp : original.fixed_binding) a[mp.module] = mp.pin_index;
  for (const auto& mp : back->fixed_binding) b[mp.module] = mp.pin_index;
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(AllCases, RoundTripTest, ::testing::Range(0, 18));

TEST(CaseIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mlsi_case.json";
  const ProblemSpec spec = cases::table42_example();
  ASSERT_TRUE(save_spec(path, spec).ok());
  const auto back = load_spec(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_modules(), 12);
  EXPECT_FALSE(load_spec("/nonexistent.json").ok());
}

TEST(SvgTest, StructureRendering) {
  const arch::SwitchTopology topo = arch::make_crossbar(2);
  const std::string svg = render_structure(topo);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("T1"), std::string::npos);   // pin label
  EXPECT_NE(svg.find("<rect"), std::string::npos);  // valves
  // 20 segments -> at least 20 line elements.
  std::size_t lines = 0;
  for (std::size_t pos = svg.find("<line"); pos != std::string::npos;
       pos = svg.find("<line", pos + 1)) {
    ++lines;
  }
  EXPECT_GE(lines, 20u);
}

TEST(SvgTest, ResultRenderingShowsFlowsAndModules) {
  const ProblemSpec spec = cases::chip_sw1(BindingPolicy::kFixed);
  synth::Synthesizer syn(spec);
  const auto result = syn.synthesize();
  ASSERT_TRUE(result.ok());
  const std::string svg = render_result(syn.topology(), spec, *result);
  EXPECT_NE(svg.find("i10"), std::string::npos);  // module label
  EXPECT_NE(svg.find("set 0"), std::string::npos);  // legend
  EXPECT_NE(svg.find("#2e7d32"), std::string::npos);  // set color used
  // Scalable layout adds control columns (dashed green lines).
  SvgOptions scalable;
  scalable.scalable_layout = true;
  const std::string svg2 = render_result(syn.topology(), spec, *result, scalable);
  EXPECT_GT(svg2.size(), svg.size());
}

TEST(SvgTest, WriteFile) {
  const std::string path = ::testing::TempDir() + "/mlsi_test.svg";
  EXPECT_TRUE(write_svg(path, "<svg></svg>").ok());
  EXPECT_FALSE(write_svg("/nonexistent/dir/x.svg", "<svg/>").ok());
}

TEST(ResultJsonTest, ContainsHeadlineNumbers) {
  const ProblemSpec spec = cases::kinase_sw1(BindingPolicy::kFixed);
  synth::Synthesizer syn(spec);
  const auto result = syn.synthesize();
  ASSERT_TRUE(result.ok());
  const json::Value doc = result_to_json(syn.topology(), spec, *result);
  EXPECT_EQ(doc.get_string("case", ""), spec.name);
  EXPECT_EQ(doc.get_string("policy", ""), "fixed");
  EXPECT_EQ(doc.get_int("num_sets", -1), result->num_sets);
  EXPECT_EQ(doc.find("flows")->as_array().size(),
            static_cast<std::size_t>(spec.num_flows()));
  EXPECT_EQ(doc.find("valves")->as_array().size(),
            static_cast<std::size_t>(result->num_valves()));
  // Serialized document parses back.
  EXPECT_TRUE(json::parse(doc.dump(2)).ok());
}

// A result document is its result alone: the process metrics snapshot
// goes only where --metrics-out writes it, so switching metrics on changes
// nothing in the document (schema v6).
TEST(ResultJsonTest, DocumentIsTheSameWithMetricsOnOrOff) {
  const ProblemSpec spec = cases::kinase_sw1(BindingPolicy::kFixed);
  synth::Synthesizer syn(spec);
  const auto result = syn.synthesize();
  ASSERT_TRUE(result.ok());
  const json::Value off = result_to_json(syn.topology(), spec, *result);

  obs::Metrics& metrics = obs::Metrics::instance();
  metrics.enable();
  metrics.counter("io_test.marker").add();
  const json::Value on = result_to_json(syn.topology(), spec, *result);
  metrics.disable();
  metrics.reset();

  EXPECT_EQ(on.dump(), off.dump());
  for (const json::Value* doc : {&off, &on}) {
    EXPECT_EQ(doc->find("metrics"), nullptr);
    EXPECT_EQ(doc->get_int("version", -1), 6);
  }
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"id", "application", "L(mm)"});
  table.add_row({"1", "ChIP", "13.6"});
  table.add_rule();
  table.add_row({"2", "nucleic acid processor", "9.8"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| id | application"), std::string::npos);
  EXPECT_NE(out.find("| 2  | nucleic acid processor | 9.8"),
            std::string::npos);
  // Every line has the same width.
  std::size_t width = std::string::npos;
  for (const auto& line : split(out, '\n')) {
    if (line.empty()) continue;
    if (width == std::string::npos) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TextTableTest, PadsShortRows) {
  TextTable table({"a", "b"});
  table.add_row({"only"});
  EXPECT_NE(table.to_string().find("| only |"), std::string::npos);
}

}  // namespace
}  // namespace mlsi::io
