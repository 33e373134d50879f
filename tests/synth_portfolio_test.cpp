// Tests for the parallel synthesis surface: the engine registry, deadline
// and stop-token semantics of the engines, the racing portfolio, and the
// batch sweep runner.

#include <gtest/gtest.h>

#include <chrono>
#include <ostream>
#include <thread>

#include "cases/cases.hpp"
#include "support/executor.hpp"
#include "support/timer.hpp"
#include "synth/cp_engine.hpp"
#include "synth/iqp_engine.hpp"
#include "synth/portfolio.hpp"
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
  EXPECT_EQ(*engine_from_string("portfolio"), &solve_portfolio);
}

TEST(EngineRegistryTest, UnknownNameListsAlternatives) {
  const auto engine = engine_from_string("simulated-annealing");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
  EXPECT_NE(engine.status().message().find("cp"), std::string::npos);
  EXPECT_NE(engine.status().message().find("portfolio"), std::string::npos);
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
                         ::testing::Values("cp", "iqp", "portfolio"));

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
                         ::testing::Values("cp", "iqp", "portfolio"));

TEST(StopMidSearchTest, CpUnwindsWithinBoundedTime) {
  // Launch a search that would run for minutes (12-pin unfixed), trip the
  // token from outside, and require a prompt cooperative unwind.
  const ProblemSpec spec = cases::mrna_isolation(BindingPolicy::kUnfixed);
  Synthesizer syn(spec);
  support::StopSource source;
  EngineParams ep;
  ep.stop = source.token();
  ep.deadline = support::Deadline::after(600.0);

  std::thread worker([&] {
    (void)solve_cp(syn.topology(), syn.paths(), spec, ep);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Timer timer;
  source.request_stop();
  worker.join();
  EXPECT_LT(timer.seconds(), 5.0)
      << "stop was requested but the dive kept running";
}

TEST(StopMidSearchTest, PortfolioForwardsCallerCancellation) {
  const ProblemSpec spec = cases::mrna_isolation(BindingPolicy::kUnfixed);
  Synthesizer syn(spec);
  support::StopSource source;
  EngineParams ep;
  ep.stop = source.token();
  ep.deadline = support::Deadline::after(600.0);
  ep.jobs = 2;

  std::thread worker([&] {
    (void)solve_portfolio(syn.topology(), syn.paths(), spec, ep);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Timer timer;
  source.request_stop();
  worker.join();
  EXPECT_LT(timer.seconds(), 5.0)
      << "caller cancellation was not forwarded to the racers";
}

// --- portfolio correctness ---------------------------------------------------

struct PortfolioCase {
  const char* name;
  ProblemSpec (*make)(BindingPolicy);
  BindingPolicy policy;
};

// Without this gtest lists the case as its raw bytes, pointers included,
// so the test names ctest discovers would change from build to build.
void PrintTo(const PortfolioCase& c, std::ostream* os) { *os << c.name; }

class PortfolioParityTest : public ::testing::TestWithParam<PortfolioCase> {};

TEST_P(PortfolioParityTest, MatchesSerialCpObjective) {
  // The acceptance criterion: on the Table 4.1 cases the portfolio must
  // report exactly the objective the serial CP engine proves optimal.
  const PortfolioCase& param = GetParam();
  const ProblemSpec spec = param.make(param.policy);
  Synthesizer syn(spec);
  EngineParams serial;
  serial.deadline = support::Deadline::after(120.0);
  EngineParams raced = serial;
  raced.jobs = 4;

  const auto cp = solve_cp(syn.topology(), syn.paths(), spec, serial);
  const auto portfolio =
      solve_portfolio(syn.topology(), syn.paths(), spec, raced);
  ASSERT_EQ(cp.ok(), portfolio.ok())
      << "cp=" << cp.status().to_string()
      << " portfolio=" << portfolio.status().to_string();
  if (!cp.ok()) {
    EXPECT_EQ(cp.status().code(), StatusCode::kInfeasible);
    EXPECT_EQ(portfolio.status().code(), StatusCode::kInfeasible);
    return;
  }
  ASSERT_TRUE(cp->stats.proven_optimal);
  EXPECT_TRUE(portfolio->stats.proven_optimal);
  EXPECT_NEAR(portfolio->objective, cp->objective, 1e-9);
  EXPECT_EQ(portfolio->num_sets, cp->num_sets);
  EXPECT_NE(portfolio->stats.engine.find("portfolio("), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Table41, PortfolioParityTest,
    ::testing::Values(
        PortfolioCase{"chip1_cw", cases::chip_sw1, BindingPolicy::kClockwise},
        PortfolioCase{"chip2_cw", cases::chip_sw2, BindingPolicy::kClockwise},
        PortfolioCase{"kin1_cw", cases::kinase_sw1, BindingPolicy::kClockwise},
        PortfolioCase{"kin2_cw", cases::kinase_sw2, BindingPolicy::kClockwise},
        PortfolioCase{"na_cw", cases::nucleic_acid, BindingPolicy::kClockwise},
        PortfolioCase{"chip1_fixed", cases::chip_sw1, BindingPolicy::kFixed},
        PortfolioCase{"kin1_fixed", cases::kinase_sw1, BindingPolicy::kFixed}),
    [](const ::testing::TestParamInfo<PortfolioCase>& info) {
      return info.param.name;
    });

TEST(PortfolioTest, InfeasibilityIsReportedNotMaskedAsTimeout) {
  // nucleic acid under fixed binding is infeasible (Table 4.1); the CP racer
  // proving that cancels the IQP racer, and the combined status must still
  // be kInfeasible, not the cancelled racer's kTimeout.
  const ProblemSpec spec = cases::nucleic_acid(BindingPolicy::kFixed);
  Synthesizer syn(spec);
  EngineParams ep;
  ep.deadline = support::Deadline::after(120.0);
  ep.jobs = 2;
  const auto result = solve_portfolio(syn.topology(), syn.paths(), spec, ep);
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(PortfolioTest, SingleJobStillSolves) {
  const ProblemSpec spec = quickstart_spec(BindingPolicy::kClockwise);
  Synthesizer syn(spec);
  EngineParams ep;
  ep.jobs = 1;
  ep.deadline = support::Deadline::after(60.0);
  const auto result = solve_portfolio(syn.topology(), syn.paths(), spec, ep);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->stats.proven_optimal);
}

TEST(PortfolioTest, RepeatedRunsReportTheSameObjective) {
  // Thread scheduling varies which racer wins; the reported cost must not.
  const ProblemSpec spec = cases::chip_sw1(BindingPolicy::kClockwise);
  Synthesizer syn(spec);
  EngineParams ep;
  ep.deadline = support::Deadline::after(120.0);
  ep.jobs = 4;
  double first = -1.0;
  for (int run = 0; run < 3; ++run) {
    const auto result =
        solve_portfolio(syn.topology(), syn.paths(), spec, ep);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    ASSERT_TRUE(result->stats.proven_optimal);
    if (run == 0) {
      first = result->objective;
    } else {
      EXPECT_DOUBLE_EQ(result->objective, first);
    }
  }
}

TEST(PortfolioTest, RejectsInvalidSpec) {
  ProblemSpec bad = quickstart_spec(BindingPolicy::kUnfixed);
  bad.flows.push_back({0, 2});  // outlet accessed twice
  Synthesizer syn(quickstart_spec(BindingPolicy::kUnfixed));
  const auto result =
      solve_portfolio(syn.topology(), syn.paths(), bad, {});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
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
