// CP search: verified symmetry breaking and — the ground truth —
// verdict/objective parity between the default search, the unreduced
// search (cp_symmetry off) and the independent IQP model on randomized
// instances. The Learning* suite names predate the removal of nogood
// learning from the search; they are kept so the test IDs stay stable.

#include <gtest/gtest.h>

#include <vector>

#include "arch/crossbar.hpp"
#include "arch/paths.hpp"
#include "cases/artificial.hpp"
#include "synth/cp_engine.hpp"
#include "synth/cp_symmetry.hpp"
#include "synth/iqp_engine.hpp"
#include "synth/portfolio.hpp"

namespace mlsi::synth {
namespace {

// --- Symmetry ---------------------------------------------------------------

TEST(SymmetryTest, EightPinCrossbarVerifiesItsRotationGroup) {
  // The crossbar's pin layout is C4-symmetric but NOT mirror-symmetric
  // (each side's pins sit at the same rotational offsets, so a reflection
  // sends pins to positions where no pin exists). Verification must accept
  // exactly the three non-identity rotations and reject all reflections.
  const arch::SwitchTopology topo = arch::make_crossbar(2);
  const arch::PathSet paths = arch::enumerate_paths(topo);
  const PinSymmetries syms = compute_pin_symmetries(topo, paths);
  EXPECT_EQ(syms.group_size(), 4);
  for (const auto& perm : syms.perms()) {
    ASSERT_EQ(static_cast<int>(perm.size()), topo.num_pins());
    std::vector<bool> seen(perm.size(), false);
    for (const int p : perm) {
      ASSERT_GE(p, 0);
      ASSERT_LT(p, static_cast<int>(perm.size()));
      EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
      seen[static_cast<std::size_t>(p)] = true;
    }
  }
  // The rotation by one side shifts the clockwise pin index by 2, so the
  // pins split into two orbits with representatives 0 and 1 — exactly the
  // candidate set of the seed's ad-hoc quarter-turn rule.
  for (int pin = 0; pin < topo.num_pins(); ++pin) {
    EXPECT_EQ(syms.orbit_min(pin), pin % 2) << "pin " << pin;
  }
}

TEST(SymmetryTest, OrbitMinFollowsTheCycle) {
  PinSymmetries syms({{1, 2, 3, 0}});
  EXPECT_EQ(syms.group_size(), 2);
  // One application of the 4-cycle per query: 3 -> 0 is reachable.
  EXPECT_EQ(syms.orbit_min(3), 0);
  EXPECT_EQ(syms.orbit_min(0), 0);
}

TEST(SymmetryTest, BreakerRejectsNonLexMinimalBindings) {
  // One symmetry swapping pins (0,1) and (2,3); modules compared 0 then 1.
  PinSymmetries syms({{1, 0, 3, 2}});
  SymmetryBreaker breaker(&syms, {0, 1});
  std::vector<int> binding = {-1, -1};
  // First binding: pin 0 maps to 1 (lex-larger image) -> admitted; pin 1
  // maps to 0 (lex-smaller image) -> rejected.
  EXPECT_TRUE(breaker.admits(binding, 0, 0));
  EXPECT_FALSE(breaker.admits(binding, 0, 1));
  // With module 0 at its fixed point... there is none here: 0 -> 1 makes
  // the image lex-larger already at position 0, so any second choice goes.
  binding[0] = 0;
  EXPECT_TRUE(breaker.admits(binding, 1, 2));
  EXPECT_TRUE(breaker.admits(binding, 1, 3));
}

// --- End-to-end parity ------------------------------------------------------

EngineParams default_params() {
  EngineParams p;
  p.deadline = support::Deadline::after(60.0);
  return p;
}

EngineParams unreduced_params() {
  EngineParams p = default_params();
  p.cp_symmetry = false;
  return p;
}

cases::ArtificialParams fuzz_case(int v) {
  cases::ArtificialParams params;
  params.pins_per_side = v % 8 == 0 ? 3 : 2;  // mostly 8-pin, some 12-pin
  params.num_inlets = 1 + v % 3;
  params.num_outlets = 3 + (v / 3) % 3;
  params.num_conflict_pairs = v % 4;
  params.policy = static_cast<BindingPolicy>(v % 3);
  params.seed = 9100ull + static_cast<std::uint64_t>(v) * 31;
  return params;
}

TEST(LearningParityTest, TwoHundredInstancesMatchSeedSearch) {
  // Ground truth for symmetry breaking: across >= 200 randomized instances
  // (all three policies), the default search and the unreduced search over
  // the full binding space must return the same verdict and, when
  // feasible, the same optimal objective — both proven.
  int feasible = 0;
  int infeasible = 0;
  for (int v = 0; v < 200; ++v) {
    const ProblemSpec spec = cases::make_artificial(fuzz_case(v));
    const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
    const arch::PathSet paths = arch::enumerate_paths(topo);
    const auto reduced = solve_cp(topo, paths, spec, default_params());
    const auto full = solve_cp(topo, paths, spec, unreduced_params());
    ASSERT_EQ(reduced.ok(), full.ok())
        << spec.name << ": default="
        << (reduced.ok() ? "ok" : reduced.status().to_string())
        << " unreduced=" << (full.ok() ? "ok" : full.status().to_string());
    if (!reduced.ok()) {
      EXPECT_EQ(reduced.status().code(), StatusCode::kInfeasible) << spec.name;
      EXPECT_EQ(full.status().code(), StatusCode::kInfeasible) << spec.name;
      ++infeasible;
      continue;
    }
    EXPECT_NEAR(reduced->objective, full->objective, 1e-6) << spec.name;
    EXPECT_TRUE(reduced->stats.proven_optimal) << spec.name;
    EXPECT_TRUE(full->stats.proven_optimal) << spec.name;
    ++feasible;
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(feasible, 20);
  EXPECT_GT(infeasible, 5);
}

TEST(LearningParityTest, CrossCheckedAgainstIqp) {
  // Independent model cross-check on the fixed-policy subset. Only a
  // *proven* IQP result is a verdict: a deadline-limited IQP run returns
  // its best incumbent, which is routinely worse than the CP optimum, so
  // comparing against it would flag the CP engine for being right. The IQP
  // proves each fixed-policy instance in under a second, but reaches the
  // deadline without a verdict on every clockwise and unfixed one (it
  // cannot prove the small unfixed models even at 150 s), so those are
  // skipped before solving; LearningPortfolioTest still races the IQP
  // engine on them.
  int compared = 0;
  for (int v = 0; v < 24; ++v) {
    cases::ArtificialParams params = fuzz_case(v);
    if (params.policy != BindingPolicy::kFixed) continue;
    params.pins_per_side = 2;
    const ProblemSpec spec = cases::make_artificial(params);
    const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
    const arch::PathSet paths = arch::enumerate_paths(topo);
    const auto cp = solve_cp(topo, paths, spec, default_params());
    EngineParams iqp_params = default_params();
    iqp_params.deadline = support::Deadline::after(10.0);
    const auto iqp = solve_iqp(topo, paths, spec, iqp_params);
    if (!iqp.ok() && iqp.status().code() != StatusCode::kInfeasible) {
      continue;  // size guard or budget: no verdict to compare
    }
    if (iqp.ok() && !iqp->stats.proven_optimal) {
      continue;  // deadline incumbent, not a verdict
    }
    ASSERT_EQ(cp.ok(), iqp.ok()) << spec.name;
    if (cp.ok()) {
      EXPECT_NEAR(cp->objective, iqp->objective, 1e-6) << spec.name;
    } else {
      EXPECT_EQ(cp.status().code(), StatusCode::kInfeasible) << spec.name;
    }
    ++compared;
  }
  // The cross-check must compare real verdicts to mean anything: every one
  // of the 8 fixed-policy instances (v = 0, 3, ..., 21) must yield one.
  EXPECT_EQ(compared, 8);
}

TEST(LearningDeterminismTest, RepeatSolvesAreIdentical) {
  // The search contains no randomness: solving the same instance twice
  // must replay the identical search.
  cases::ArtificialParams params = fuzz_case(5);
  params.policy = BindingPolicy::kUnfixed;
  const ProblemSpec spec = cases::make_artificial(params);
  const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
  const arch::PathSet paths = arch::enumerate_paths(topo);
  const auto first = solve_cp(topo, paths, spec, default_params());
  const auto second = solve_cp(topo, paths, spec, default_params());
  ASSERT_EQ(first.ok(), second.ok());
  if (!first.ok()) return;
  EXPECT_EQ(first->objective, second->objective);
  EXPECT_EQ(first->stats.nodes, second->stats.nodes);
}

TEST(LearningPortfolioTest, ConcurrentRacersStayExact) {
  // The cp racer and the iqp racer share an incumbent; run under TSan in
  // check.sh. Verdicts must agree with a standalone cp solve.
  for (int v = 0; v < 6; ++v) {
    cases::ArtificialParams params = fuzz_case(v);
    params.pins_per_side = 2;
    const ProblemSpec spec = cases::make_artificial(params);
    const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
    const arch::PathSet paths = arch::enumerate_paths(topo);
    EngineParams p = default_params();
    p.jobs = 2;
    const auto raced = solve_portfolio(topo, paths, spec, p);
    const auto solo = solve_cp(topo, paths, spec, default_params());
    ASSERT_EQ(raced.ok(), solo.ok()) << spec.name;
    if (raced.ok()) {
      EXPECT_NEAR(raced->objective, solo->objective, 1e-6) << spec.name;
      EXPECT_TRUE(raced->stats.proven_optimal) << spec.name;
    }
  }
}

}  // namespace
}  // namespace mlsi::synth
