// Tests for the problem specification and its validation rules.

#include <gtest/gtest.h>

#include "synth/spec.hpp"

namespace mlsi::synth {
namespace {

ProblemSpec base_spec() {
  ProblemSpec spec;
  spec.name = "t";
  spec.pins_per_side = 2;
  spec.modules = {"in1", "in2", "outA", "outB"};
  spec.flows = {{0, 2}, {1, 3}};
  spec.policy = BindingPolicy::kUnfixed;
  return spec;
}

TEST(SpecTest, ValidBaseSpec) {
  EXPECT_TRUE(base_spec().validate().ok());
}

TEST(SpecTest, PolicyNames) {
  EXPECT_EQ(to_string(BindingPolicy::kFixed), "fixed");
  EXPECT_EQ(to_string(BindingPolicy::kClockwise), "clockwise");
  EXPECT_EQ(to_string(BindingPolicy::kUnfixed), "unfixed");
  EXPECT_EQ(*binding_policy_from_string("clockwise"), BindingPolicy::kClockwise);
  EXPECT_FALSE(binding_policy_from_string("sideways").ok());
}

TEST(SpecTest, RejectsEmptyModulesOrFlows) {
  ProblemSpec s = base_spec();
  s.modules.clear();
  s.flows.clear();
  EXPECT_FALSE(s.validate().ok());
  s = base_spec();
  s.flows.clear();
  EXPECT_FALSE(s.validate().ok());
}

TEST(SpecTest, RejectsDuplicateModuleNames) {
  ProblemSpec s = base_spec();
  s.modules[1] = "in1";
  EXPECT_FALSE(s.validate().ok());
}

TEST(SpecTest, RejectsSelfFlow) {
  ProblemSpec s = base_spec();
  s.flows.push_back({0, 0});
  EXPECT_FALSE(s.validate().ok());
}

TEST(SpecTest, RejectsDoubleAccessedOutlet) {
  // "each outlet pin can be accessed at most once" (Section 4.2).
  ProblemSpec s = base_spec();
  s.flows.push_back({1, 2});  // outA already receives from in1
  EXPECT_FALSE(s.validate().ok());
}

TEST(SpecTest, RejectsInletUsedAsOutlet) {
  ProblemSpec s = base_spec();
  s.flows[1] = {1, 0};  // in1 becomes a destination
  EXPECT_FALSE(s.validate().ok());
}

TEST(SpecTest, RejectsDanglingModule) {
  ProblemSpec s = base_spec();
  s.modules.push_back("floating");
  EXPECT_FALSE(s.validate().ok());
}

TEST(SpecTest, RejectsSameInletConflict) {
  ProblemSpec s = base_spec();
  s.modules.push_back("outC");
  s.flows.push_back({0, 4});
  s.conflicts = {{0, 2}};  // both flows originate at in1
  EXPECT_FALSE(s.validate().ok());
}

TEST(SpecTest, RejectsBadConflictIndices) {
  ProblemSpec s = base_spec();
  s.conflicts = {{0, 9}};
  EXPECT_FALSE(s.validate().ok());
  s.conflicts = {{1, 1}};
  EXPECT_FALSE(s.validate().ok());
}

TEST(SpecTest, FixedPolicyNeedsCompleteInjectiveBinding) {
  ProblemSpec s = base_spec();
  s.policy = BindingPolicy::kFixed;
  EXPECT_FALSE(s.validate().ok());  // missing binding
  s.fixed_binding = {{0, 0}, {1, 1}, {2, 2}, {3, 2}};
  EXPECT_FALSE(s.validate().ok());  // duplicate pin
  s.fixed_binding = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  EXPECT_TRUE(s.validate().ok());
}

TEST(SpecTest, ClockwisePolicyNeedsPermutation) {
  ProblemSpec s = base_spec();
  s.policy = BindingPolicy::kClockwise;
  EXPECT_FALSE(s.validate().ok());  // missing order
  s.clockwise_order = {0, 1, 2, 2};
  EXPECT_FALSE(s.validate().ok());  // not a permutation
  s.clockwise_order = {3, 1, 0, 2};
  EXPECT_TRUE(s.validate().ok());
}

TEST(SpecTest, RejectsBadWeightsAndSets) {
  ProblemSpec s = base_spec();
  s.alpha = -1;
  EXPECT_FALSE(s.validate().ok());
  s = base_spec();
  s.alpha = 0;
  s.beta = 0;
  EXPECT_FALSE(s.validate().ok());
  s = base_spec();
  s.max_sets = -2;
  EXPECT_FALSE(s.validate().ok());
}

TEST(SpecTest, RejectsBadPinsPerSide) {
  ProblemSpec s = base_spec();
  s.pins_per_side = 5;
  EXPECT_FALSE(s.validate().ok());
  s.pins_per_side = 1;
  EXPECT_FALSE(s.validate().ok());
  s.pins_per_side = 0;  // auto is fine
  EXPECT_TRUE(s.validate().ok());
}

TEST(SpecTest, AutoSizeIsTheSmallestFittingCrossbar) {
  // pins_per_side 0 picks the smallest of the 8-, 12- and 16-pin crossbars
  // with at least one pin per module; an explicit size wins.
  ProblemSpec s = base_spec();
  s.pins_per_side = 0;
  const auto with_modules = [&](int n) {
    s.modules.resize(static_cast<std::size_t>(n), "");
    return s.effective_pins_per_side();
  };
  EXPECT_EQ(with_modules(5), 2);
  EXPECT_EQ(with_modules(8), 2);
  EXPECT_EQ(with_modules(9), 3);
  EXPECT_EQ(with_modules(13), 4);
  s.pins_per_side = 4;
  EXPECT_EQ(with_modules(5), 4);
}

TEST(SpecTest, ConflictLiftingToInletModules) {
  ProblemSpec s = base_spec();
  s.modules.push_back("outC");
  s.flows.push_back({0, 4});   // flow 2: in1 -> outC
  s.conflicts = {{0, 1}};      // in1's flow 0 vs in2's flow 1
  ASSERT_TRUE(s.validate().ok());
  const auto pairs = s.conflicting_inlet_modules();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair{0, 1}));
  // The closure makes flow 2 (same reagent as flow 0) conflict with flow 1.
  EXPECT_TRUE(s.flows_conflict(0, 1));
  EXPECT_TRUE(s.flows_conflict(2, 1));
  EXPECT_FALSE(s.flows_conflict(0, 2));  // same inlet: same reagent
}

TEST(SpecTest, HelperQueries) {
  const ProblemSpec s = base_spec();
  EXPECT_EQ(s.module_index("outB"), 3);
  EXPECT_EQ(s.module_index("nope"), -1);
  EXPECT_TRUE(s.is_inlet(0));
  EXPECT_FALSE(s.is_inlet(2));
  EXPECT_EQ(s.effective_max_sets(), 2);
  ProblemSpec capped = s;
  capped.max_sets = 7;
  EXPECT_EQ(capped.effective_max_sets(), 7);
}

}  // namespace
}  // namespace mlsi::synth
