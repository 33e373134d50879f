// Randomized end-to-end property suite: for arbitrary generated cases, on
// every topology family, synthesis either proves infeasibility or produces
// a design that the independent flood simulation accepts — including after
// valve reduction, pressure sharing and hardening.

#include <gtest/gtest.h>

#include "arch/crossbar.hpp"
#include "arch/gru.hpp"
#include "arch/paths.hpp"
#include "cases/artificial.hpp"
#include "sim/simulator.hpp"
#include "synth/cp_engine.hpp"
#include "synth/synthesizer.hpp"

namespace mlsi::synth {
namespace {

class RandomPipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomPipelineTest, SynthesisValidatesOrProvesInfeasible) {
  const int v = GetParam();
  cases::ArtificialParams params;
  params.pins_per_side = 2 + v % 2;
  params.num_inlets = 1 + v % 3;
  params.num_outlets = 3 + (v / 2) % 3;
  params.num_conflict_pairs = v % 4;
  params.policy = static_cast<BindingPolicy>(v % 3);
  params.seed = 7000ull + static_cast<std::uint64_t>(v) * 13;
  const ProblemSpec spec = cases::make_artificial(params);

  SynthesisOptions options;
  options.engine_params.deadline = support::Deadline::after(30.0);
  // Alternate pressure modes and reduction rules across the sweep.
  options.pressure = v % 2 == 0 ? PressureMode::kIlp : PressureMode::kGreedy;
  options.reduction = v % 5 == 0 ? ValveReductionRule::kNone
                                 : ValveReductionRule::kPaper;
  Synthesizer syn(spec, options);
  const auto result = syn.synthesize();
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kInfeasible) << spec.name;
    return;
  }
  // Structural invariants.
  EXPECT_EQ(static_cast<int>(result->routed.size()), spec.num_flows());
  EXPECT_GE(result->num_sets, 1);
  EXPECT_LE(result->num_sets, spec.effective_max_sets());
  EXPECT_GT(result->flow_length_mm, 0.0);
  EXPECT_EQ(result->valve_states.size(),
            static_cast<std::size_t>(result->num_sets));
  for (const auto& per_set : result->valve_states) {
    EXPECT_EQ(per_set.size(), result->essential_valves.size());
  }
  // Pressure groups form a valid cover.
  const auto compat = valve_compatibility(result->valve_states);
  PressureGroups groups;
  groups.group = result->pressure_group;
  groups.num_groups = result->num_pressure_groups;
  EXPECT_TRUE(groups_valid(compat, groups)) << spec.name;
  // The physics oracle.
  SynthesisResult hardened = *result;
  const auto outcome = sim::harden(syn.topology(), spec, hardened);
  EXPECT_TRUE(outcome.report.ok())
      << spec.name << ": " << outcome.report.summary();
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomPipelineTest, ::testing::Range(0, 24));

TEST(GruSynthesisTest, EngineWorksOnGruTopology) {
  // The cp engine is topology-agnostic: run the nucleic-acid case on the
  // predecessor GRU switch. Either outcome is acceptable physics-wise, but
  // a produced design must validate.
  const arch::SwitchTopology gru = arch::make_gru(1);
  const arch::PathSet paths = arch::enumerate_paths(gru);
  ProblemSpec spec;
  spec.name = "gru-nucleic";
  spec.modules = {"M1", "M2", "M3", "RC1", "RC2", "RC3", "w"};
  spec.flows = {{0, 3}, {1, 4}, {2, 5}, {0, 6}};
  spec.conflicts = {{0, 1}, {0, 2}, {1, 2}};
  spec.policy = BindingPolicy::kUnfixed;
  EngineParams params;
  params.deadline = support::Deadline::after(60.0);
  const auto result = solve_cp(gru, paths, spec, params);
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
    return;
  }
  const auto report = sim::validate(sim::make_program(gru, spec, *result));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(GruSynthesisTest, PaperSection21CounterexampleIsInfeasibleOnGru) {
  // "Problem occurs when two conflicting flows are from pin TL and T,
  // passing by the node N without other routing choices." Pin TL and T are
  // forced (fixed binding); both paths must start through node N, so a
  // contamination-free routing cannot exist.
  const arch::SwitchTopology gru = arch::make_gru(1);
  const arch::PathSet paths = arch::enumerate_paths(gru);
  ProblemSpec spec;
  spec.name = "gru-TL-T-conflict";
  spec.modules = {"srcTL", "srcT", "dstB", "dstBR"};
  spec.flows = {{0, 2}, {1, 3}};
  spec.conflicts = {{0, 1}};
  spec.policy = BindingPolicy::kFixed;
  // Clockwise pin order on one GRU: TL,T,TR,R,BR,B,BL,L -> indices 0,1,4,5.
  spec.fixed_binding = {{0, 0}, {1, 1}, {2, 5}, {3, 4}};
  const auto result = solve_cp(gru, paths, spec, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);

  // The same two conflicting flows route fine on the 8-pin crossbar with
  // the corresponding pins (T1, T2 share no node).
  const arch::SwitchTopology crossbar = arch::make_crossbar(2);
  const arch::PathSet cpaths = arch::enumerate_paths(crossbar);
  ProblemSpec on_crossbar = spec;
  on_crossbar.name = "crossbar-T1-T2-conflict";
  const auto cres = solve_cp(crossbar, cpaths, on_crossbar, {});
  EXPECT_TRUE(cres.ok()) << cres.status().to_string();
}

}  // namespace
}  // namespace mlsi::synth
