// Tests for the parallel synthesis surface: the engine registry, deadline
// and stop-token semantics of the engines, and the batch sweep runner. The
// cp engine's split of the free policies over their root units has its
// parity suites in cp_search_test.cpp.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "cases/cases.hpp"
#include "support/executor.hpp"
#include "support/timer.hpp"
#include "synth/cp_engine.hpp"
#include "synth/iqp_engine.hpp"
#include "synth/synthesizer.hpp"

namespace mlsi::synth {
namespace {

ProblemSpec quickstart_spec(BindingPolicy policy) {
  ProblemSpec spec;
  spec.name = "quickstart";
  spec.pins_per_side = 2;
  spec.modules = {"sampleA", "sampleB", "det1", "det2", "det3", "det4"};
  spec.flows = {{0, 2}, {0, 3}, {1, 4}, {1, 5}};
  spec.conflicts = {{0, 2}, {0, 3}, {1, 2}, {1, 3}};
  spec.policy = policy;
  if (policy == BindingPolicy::kClockwise) {
    spec.clockwise_order = {0, 2, 3, 1, 4, 5};
  }
  if (policy == BindingPolicy::kFixed) {
    spec.fixed_binding = {{0, 0}, {2, 1}, {3, 2}, {1, 4}, {4, 5}, {5, 6}};
  }
  return spec;
}

// --- engine registry ---------------------------------------------------------

TEST(EngineRegistryTest, ResolvesEveryRegisteredName) {
  for (const auto name : engine_names()) {
    const auto engine = engine_from_string(name);
    ASSERT_TRUE(engine.ok()) << name;
    EXPECT_NE(*engine, nullptr);
  }
  EXPECT_EQ(*engine_from_string("cp"), &solve_cp);
  EXPECT_EQ(*engine_from_string("iqp"), &solve_iqp);
  EXPECT_EQ(engine_names().size(), 2u);
}

TEST(EngineRegistryTest, UnknownNameListsAlternatives) {
  const auto engine = engine_from_string("simulated-annealing");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
  EXPECT_NE(engine.status().message().find("cp"), std::string::npos);
  EXPECT_NE(engine.status().message().find("iqp"), std::string::npos);
}

TEST(EngineRegistryTest, SynthesizerSurfacesUnknownEngine) {
  SynthesisOptions options;
  options.engine = "nope";
  const auto result =
      synthesize(quickstart_spec(BindingPolicy::kFixed), options);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// --- deadline semantics ------------------------------------------------------

class ExpiredDeadlineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ExpiredDeadlineTest, ReturnsTimeoutImmediately) {
  // An already-expired deadline must come back as kTimeout without doing
  // search work, from every engine uniformly.
  const ProblemSpec spec = cases::chip_sw1(BindingPolicy::kClockwise);
  Synthesizer syn(spec);
  EngineParams ep;
  ep.deadline = support::Deadline::after(1e-12);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(ep.deadline.expired());

  Timer timer;
  const auto engine = engine_from_string(GetParam());
  ASSERT_TRUE(engine.ok());
  const auto result = (*engine)(syn.topology(), syn.paths(), spec, ep);
  ASSERT_FALSE(result.ok()) << GetParam();
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout) << GetParam();
  EXPECT_LT(timer.seconds(), 5.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ExpiredDeadlineTest,
                         ::testing::Values("cp", "iqp"));

// --- stop token semantics ----------------------------------------------------

class PreTrippedStopTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PreTrippedStopTest, ReturnsPromptly) {
  const ProblemSpec spec = cases::chip_sw1(BindingPolicy::kClockwise);
  Synthesizer syn(spec);
  support::StopSource source;
  source.request_stop();
  EngineParams ep;
  ep.stop = source.token();

  Timer timer;
  const auto engine = engine_from_string(GetParam());
  ASSERT_TRUE(engine.ok());
  const auto result = (*engine)(syn.topology(), syn.paths(), spec, ep);
  // A tripped token is indistinguishable from an exhausted budget: either a
  // quick unproven incumbent or a timeout, never a proven optimum.
  if (result.ok()) {
    EXPECT_FALSE(result->stats.proven_optimal) << GetParam();
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kTimeout) << GetParam();
  }
  EXPECT_LT(timer.seconds(), 5.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllEngines, PreTrippedStopTest,
                         ::testing::Values("cp", "iqp"));

TEST(StopMidSearchTest, CpUnwindsWithinBoundedTime) {
  // Launch a search that would run for minutes (13-module mRNA on 16 pins,
  // unfixed, without the symmetry rules: not proven in 300 s), trip the
  // token from outside, and require a prompt cooperative unwind that
  // reports no proof.
  const ProblemSpec spec = cases::mrna_13(BindingPolicy::kUnfixed);
  Synthesizer syn(spec);
  support::StopSource source;
  EngineParams ep;
  ep.stop = source.token();
  ep.deadline = support::Deadline::after(600.0);
  ep.cp_symmetry = false;

  Result<SynthesisResult> stopped{Status::Internal("not run")};
  std::thread worker(
      [&] { stopped = solve_cp(syn.topology(), syn.paths(), spec, ep); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Timer timer;
  source.request_stop();
  worker.join();
  EXPECT_LT(timer.seconds(), 5.0)
      << "stop was requested but the dive kept running";
  // The stop cut the search: an unproven incumbent or no design at all.
  if (stopped.ok()) {
    EXPECT_FALSE(stopped->stats.proven_optimal) << "finished before the stop";
  } else {
    EXPECT_EQ(stopped.status().code(), StatusCode::kTimeout);
  }
}

// --- batch sweeps ------------------------------------------------------------

TEST(BatchSynthesizerTest, ReturnsResultsInSpecOrder) {
  std::vector<ProblemSpec> specs = {
      cases::chip_sw1(BindingPolicy::kClockwise),
      cases::nucleic_acid(BindingPolicy::kFixed),  // infeasible
      quickstart_spec(BindingPolicy::kClockwise),
      cases::kinase_sw1(BindingPolicy::kFixed),
  };
  SynthesisOptions options;
  options.engine_params.deadline = support::Deadline::after(120.0);
  BatchSynthesizer batch(options);
  const auto results = batch.run_all(specs, 4);
  ASSERT_EQ(results.size(), specs.size());

  // Each slot matches its serial counterpart.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto serial = synthesize(specs[i], options);
    ASSERT_EQ(results[i].ok(), serial.ok()) << specs[i].name;
    if (serial.ok()) {
      EXPECT_NEAR(results[i]->objective, serial->objective, 1e-9)
          << specs[i].name;
    } else {
      EXPECT_EQ(results[i].status().code(), serial.status().code())
          << specs[i].name;
    }
  }
  EXPECT_EQ(results[1].status().code(), StatusCode::kInfeasible);
}

TEST(BatchSynthesizerTest, HandlesEmptyAndOversubscribedInput) {
  BatchSynthesizer batch;
  EXPECT_TRUE(batch.run_all({}, 8).empty());
  // More workers than specs must not deadlock or leak.
  const auto results =
      batch.run_all({quickstart_spec(BindingPolicy::kFixed)}, 16);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok()) << results[0].status().to_string();
}

}  // namespace
}  // namespace mlsi::synth
