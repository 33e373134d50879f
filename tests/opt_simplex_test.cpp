// Tests for the bounded-variable two-phase simplex.
//
// Strategy: hand-checked textbook LPs pin exact optima; randomized property
// suites check (a) returned points are feasible, (b) no random feasible
// point beats the reported optimum, and (c) maximization via negated costs
// agrees with direct evaluation at box corners for monotone objectives.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "opt/simplex.hpp"
#include "support/rng.hpp"

namespace mlsi::opt {
namespace {

LpProblem make_problem(int n, std::vector<double> lb, std::vector<double> ub,
                       std::vector<double> cost) {
  LpProblem lp;
  lp.num_vars = n;
  lp.lb = std::move(lb);
  lp.ub = std::move(ub);
  lp.cost = std::move(cost);
  return lp;
}

void add_row(LpProblem& lp, std::vector<std::pair<int, double>> terms,
             double lo, double hi) {
  lp.rows.push_back(LpRow{std::move(terms), lo, hi});
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SimplexTest, UnconstrainedBoxMinimum) {
  // min 2x - 3y over [0,4]x[1,5]: x=0, y=5 -> -15.
  auto lp = make_problem(2, {0, 1}, {4, 5}, {2, -3});
  const auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -15.0, 1e-7);
  EXPECT_NEAR(res.x[0], 0.0, 1e-7);
  EXPECT_NEAR(res.x[1], 5.0, 1e-7);
}

TEST(SimplexTest, ClassicTwoVarLp) {
  // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18; x, y >= 0.
  // Optimum (2, 6) -> 36. Minimize the negation.
  auto lp = make_problem(2, {0, 0}, {100, 100}, {-3, -5});
  add_row(lp, {{0, 1.0}}, -kInf, 4);
  add_row(lp, {{1, 2.0}}, -kInf, 12);
  add_row(lp, {{0, 3.0}, {1, 2.0}}, -kInf, 18);
  const auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -36.0, 1e-6);
  EXPECT_NEAR(res.x[0], 2.0, 1e-6);
  EXPECT_NEAR(res.x[1], 6.0, 1e-6);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y s.t. x + y = 3, x in [0,2], y in [0,2] -> objective 3.
  auto lp = make_problem(2, {0, 0}, {2, 2}, {1, 1});
  add_row(lp, {{0, 1.0}, {1, 1.0}}, 3.0, 3.0);
  const auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 3.0, 1e-7);
  EXPECT_NEAR(res.x[0] + res.x[1], 3.0, 1e-7);
}

TEST(SimplexTest, RangeRow) {
  // min x s.t. 2 <= x + y <= 5 with x,y in [0,10] -> x = 0 (y covers the 2).
  auto lp = make_problem(2, {0, 0}, {10, 10}, {1, 0});
  add_row(lp, {{0, 1.0}, {1, 1.0}}, 2.0, 5.0);
  const auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 0.0, 1e-7);
}

TEST(SimplexTest, InfeasibleByRows) {
  // x + y <= 1 and x + y >= 3 cannot both hold.
  auto lp = make_problem(2, {0, 0}, {5, 5}, {1, 1});
  add_row(lp, {{0, 1.0}, {1, 1.0}}, -kInf, 1.0);
  add_row(lp, {{0, 1.0}, {1, 1.0}}, 3.0, kInf);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, InfeasibleByActivityRange) {
  // x in [0,1] but the row wants x >= 2.
  auto lp = make_problem(1, {0}, {1}, {1});
  add_row(lp, {{0, 1.0}}, 2.0, kInf);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x + y s.t. x - y >= 2, x in [-5,5], y in [-5,5].
  // y <= x - 2, so y = -5 and x = -3 attain the optimum -8.
  auto lp = make_problem(2, {-5, -5}, {5, 5}, {1, 1});
  add_row(lp, {{0, 1.0}, {1, -1.0}}, 2.0, kInf);
  const auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -8.0, 1e-6);
}

TEST(SimplexTest, FixedVariable) {
  // y fixed at 2; min x with x >= y -> x = 2.
  auto lp = make_problem(2, {0, 2}, {10, 2}, {1, 0});
  add_row(lp, {{0, 1.0}, {1, -1.0}}, 0.0, kInf);
  const auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.x[0], 2.0, 1e-7);
}

TEST(SimplexTest, DegenerateVertexTerminates) {
  // Many redundant constraints intersecting at the optimum.
  auto lp = make_problem(2, {0, 0}, {10, 10}, {-1, -1});
  for (int k = 1; k <= 6; ++k) {
    add_row(lp, {{0, 1.0}, {1, static_cast<double>(k)}}, -kInf,
            1.0 + static_cast<double>(k));
  }
  const auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -2.0, 1e-6);  // x=1, y=1
}

TEST(SimplexTest, CostConstantCarriesThrough) {
  auto lp = make_problem(1, {0}, {1}, {1});
  lp.cost_constant = 10.0;
  const auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 10.0, 1e-9);
}

TEST(SimplexTest, EmptyProblem) {
  LpProblem lp;
  const auto res = solve_lp(lp);
  EXPECT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_EQ(res.objective, 0.0);
}

TEST(SimplexTest, AssignmentPolytopeIsIntegral) {
  // 3x3 assignment problem: the LP optimum is integral (Birkhoff).
  // Costs chosen so the unique optimum is the diagonal.
  const double cost[3][3] = {{1, 9, 9}, {9, 1, 9}, {9, 9, 1}};
  LpProblem lp;
  lp.num_vars = 9;
  lp.lb.assign(9, 0.0);
  lp.ub.assign(9, 1.0);
  lp.cost.resize(9);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) lp.cost[3 * i + j] = cost[i][j];
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<std::pair<int, double>> rowr;
    std::vector<std::pair<int, double>> colr;
    for (int j = 0; j < 3; ++j) {
      rowr.emplace_back(3 * i + j, 1.0);
      colr.emplace_back(3 * j + i, 1.0);
    }
    add_row(lp, std::move(rowr), 1.0, 1.0);
    add_row(lp, std::move(colr), 1.0, 1.0);
  }
  const auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 3.0, 1e-6);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(res.x[4 * i], 1.0, 1e-6);
}

TEST(SimplexTest, WarmBasisReproducesOptimum) {
  // Solve, perturb a bound, re-solve warm: same result as the cold solve.
  auto lp = make_problem(3, {0, 0, 0}, {5, 5, 5}, {-2, -1, -3});
  add_row(lp, {{0, 1.0}, {1, 1.0}, {2, 1.0}}, -kInf, 7.0);
  add_row(lp, {{0, 1.0}, {2, -1.0}}, -kInf, 2.0);
  const auto cold = solve_lp(lp);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  ASSERT_FALSE(cold.basis.empty());

  lp.ub[2] = 3.0;  // tighten a bound, branch & bound style
  const auto cold2 = solve_lp(lp);
  LpParams warm_params;
  warm_params.warm_basis = &cold.basis;
  const auto warm = solve_lp(lp, warm_params);
  ASSERT_EQ(cold2.status, LpStatus::kOptimal);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold2.objective, 1e-6);
  // The dual entry must have done the work: the parent basis was adopted
  // and primal phase 1 never ran.
  EXPECT_TRUE(warm.used_warm_start);
  EXPECT_EQ(warm.phase1_iterations, 0);
}

TEST(SimplexTest, WarmStartAfterLowerBoundTightening) {
  // Branch "up" direction: raise a lower bound past the parent optimum.
  auto lp = make_problem(3, {0, 0, 0}, {6, 6, 6}, {1, 2, -1});
  add_row(lp, {{0, 1.0}, {1, 1.0}, {2, 1.0}}, 4.0, 10.0);
  add_row(lp, {{0, 2.0}, {1, -1.0}}, -kInf, 5.0);
  const auto parent = solve_lp(lp);
  ASSERT_EQ(parent.status, LpStatus::kOptimal);

  lp.lb[1] = 3.0;
  const auto cold = solve_lp(lp);
  LpParams warm_params;
  warm_params.warm_basis = &parent.basis;
  const auto warm = solve_lp(lp, warm_params);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
  EXPECT_TRUE(warm.used_warm_start);
  EXPECT_EQ(warm.phase1_iterations, 0);
}

TEST(SimplexTest, WarmStartDetectsInfeasibleChild) {
  // Tightening makes the child infeasible: the dual simplex must prove it
  // (dual unboundedness) without a primal phase-1 round trip.
  auto lp = make_problem(2, {0, 0}, {4, 4}, {1, 1});
  add_row(lp, {{0, 1.0}, {1, 1.0}}, 6.0, kInf);  // x + y >= 6
  const auto parent = solve_lp(lp);
  ASSERT_EQ(parent.status, LpStatus::kOptimal);
  EXPECT_NEAR(parent.objective, 6.0, 1e-6);

  lp.ub[0] = 1.0;  // now max achievable x + y = 5 < 6
  LpParams warm_params;
  warm_params.warm_basis = &parent.basis;
  const auto warm = solve_lp(lp, warm_params);
  EXPECT_EQ(warm.status, LpStatus::kInfeasible);
  EXPECT_TRUE(warm.used_warm_start);
  // Cross-check against the cold solve.
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, InvalidWarmBasisFallsBack) {
  auto lp = make_problem(2, {0, 0}, {4, 4}, {-1, -1});
  add_row(lp, {{0, 1.0}, {1, 1.0}}, -kInf, 5.0);
  LpBasis bogus;
  bogus.basic = {99};  // out of range, and status is missing entirely
  LpParams params;
  params.warm_basis = &bogus;
  const auto res = solve_lp(lp, params);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -5.0, 1e-6);
  EXPECT_FALSE(res.used_warm_start);
}

TEST(SimplexTest, DuplicateColumnWarmBasisFallsBack) {
  auto lp = make_problem(2, {0, 0}, {4, 4}, {-1, -1});
  add_row(lp, {{0, 1.0}, {1, 1.0}}, -kInf, 5.0);
  LpBasis bogus;
  bogus.status.assign(3, ColStatus::kAtLower);
  bogus.basic = {2, 2};  // duplicate (and too long for one row)
  LpParams params;
  params.warm_basis = &bogus;
  const auto res = solve_lp(lp, params);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -5.0, 1e-6);
  EXPECT_FALSE(res.used_warm_start);
}

TEST(SimplexTest, BealeCycleGuard) {
  // Beale's classic cycling example (dictionary form). Dantzig pricing with
  // a naive ratio test cycles forever; the stall counter must force Bland's
  // rule and terminate at the known optimum -0.05.
  auto lp = make_problem(4, {0, 0, 0, 0}, {100, 100, 100, 100},
                         {-0.75, 150.0, -0.02, 6.0});
  add_row(lp, {{0, 0.25}, {1, -60.0}, {2, -1.0 / 25.0}, {3, 9.0}}, -kInf, 0.0);
  add_row(lp, {{0, 0.5}, {1, -90.0}, {2, -1.0 / 50.0}, {3, 3.0}}, -kInf, 0.0);
  add_row(lp, {{2, 1.0}}, -kInf, 1.0);
  LpParams params;
  params.stall_limit = 4;  // provoke the Bland fallback quickly
  const auto res = solve_lp(lp, params);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -0.05, 1e-6);
}

TEST(SimplexTest, HighlyDegenerateTransportLp) {
  // A transportation-style LP where every vertex is massively degenerate:
  // supplies equal demands, so basic feasible solutions carry many zero
  // basics. Checks termination and the known optimum under degeneracy.
  constexpr int kSz = 4;
  LpProblem lp;
  lp.num_vars = kSz * kSz;
  lp.lb.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
  lp.ub.assign(static_cast<std::size_t>(lp.num_vars), 1.0);
  lp.cost.resize(static_cast<std::size_t>(lp.num_vars));
  for (int i = 0; i < kSz; ++i) {
    for (int j = 0; j < kSz; ++j) {
      lp.cost[static_cast<std::size_t>(kSz * i + j)] = i == j ? 1.0 : 2.0;
    }
  }
  for (int i = 0; i < kSz; ++i) {
    std::vector<std::pair<int, double>> rowr;
    std::vector<std::pair<int, double>> colr;
    for (int j = 0; j < kSz; ++j) {
      rowr.emplace_back(kSz * i + j, 1.0);
      colr.emplace_back(kSz * j + i, 1.0);
    }
    add_row(lp, std::move(rowr), 1.0, 1.0);
    add_row(lp, std::move(colr), 1.0, 1.0);
  }
  LpParams params;
  params.stall_limit = 2;  // exercise Bland under heavy degeneracy
  const auto res = solve_lp(lp, params);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, static_cast<double>(kSz), 1e-6);
}

TEST(SimplexTest, HugeBoundsStandInForUnbounded) {
  // The method requires finite boxes; "unbounded" LPs appear as huge boxes
  // and must still solve cleanly to the box corner instead of overflowing.
  auto lp = make_problem(2, {-1e9, -1e9}, {1e9, 1e9}, {1.0, 0.5});
  add_row(lp, {{0, 1.0}, {1, -1.0}}, -kInf, 1e9);
  const auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -1.5e9, 1.0);
  EXPECT_NEAR(res.x[0], -1e9, 1e-3);
  EXPECT_NEAR(res.x[1], -1e9, 1e-3);
}

TEST(SimplexTest, DenseOracleAgreesOnTextbookLp) {
  auto lp = make_problem(2, {0, 0}, {100, 100}, {-3, -5});
  add_row(lp, {{0, 1.0}}, -kInf, 4);
  add_row(lp, {{1, 2.0}}, -kInf, 12);
  add_row(lp, {{0, 3.0}, {1, 2.0}}, -kInf, 18);
  LpParams dense;
  dense.use_dense = true;
  const auto a = solve_lp(lp);
  const auto b = solve_lp(lp, dense);
  ASSERT_EQ(a.status, LpStatus::kOptimal);
  ASSERT_EQ(b.status, LpStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
}

// --- randomized properties ---------------------------------------------------

struct RandomLp {
  LpProblem lp;
};

RandomLp random_lp(Rng& rng, int n, int m) {
  RandomLp out;
  LpProblem& lp = out.lp;
  lp.num_vars = n;
  lp.lb.resize(n);
  lp.ub.resize(n);
  lp.cost.resize(n);
  for (int j = 0; j < n; ++j) {
    const double a = rng.next_double() * 10 - 5;
    const double b = a + rng.next_double() * 10;
    lp.lb[j] = a;
    lp.ub[j] = b;
    lp.cost[j] = rng.next_double() * 4 - 2;
  }
  for (int r = 0; r < m; ++r) {
    LpRow row;
    for (int j = 0; j < n; ++j) {
      if (rng.next_bool(0.6)) {
        row.terms.emplace_back(j, rng.next_double() * 4 - 2);
      }
    }
    // Anchor the row around the activity at the box center so that most
    // random instances stay feasible (infeasible ones are still valid
    // tests: the solver must then report infeasible, which we cross-check
    // by sampling).
    double center = 0.0;
    for (const auto& [j, a] : row.terms) center += a * 0.5 * (lp.lb[j] + lp.ub[j]);
    const int kind = rng.next_int(0, 2);
    const double slack = rng.next_double() * 6;
    if (kind == 0) {
      row.lo = -kInf;
      row.hi = center + slack;
    } else if (kind == 1) {
      row.lo = center - slack;
      row.hi = kInf;
    } else {
      row.lo = center - slack;
      row.hi = center + rng.next_double() * 6;
    }
    lp.rows.push_back(std::move(row));
  }
  return out;
}

bool point_feasible(const LpProblem& lp, const std::vector<double>& x,
                    double tol = 1e-7) {
  for (int j = 0; j < lp.num_vars; ++j) {
    if (x[j] < lp.lb[j] - tol || x[j] > lp.ub[j] + tol) return false;
  }
  for (const auto& row : lp.rows) {
    double act = 0.0;
    for (const auto& [j, a] : row.terms) act += a * x[j];
    if (act < row.lo - tol || act > row.hi + tol) return false;
  }
  return true;
}

double point_cost(const LpProblem& lp, const std::vector<double>& x) {
  double acc = lp.cost_constant;
  for (int j = 0; j < lp.num_vars; ++j) acc += lp.cost[j] * x[j];
  return acc;
}

class SimplexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomTest, OptimumIsFeasibleAndUnbeatenBySampling) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int n = rng.next_int(2, 8);
  const int m = rng.next_int(1, 8);
  const auto inst = random_lp(rng, n, m);
  const auto res = solve_lp(inst.lp);

  std::vector<double> pt(n);
  if (res.status == LpStatus::kOptimal) {
    EXPECT_TRUE(point_feasible(inst.lp, res.x))
        << "solver returned an infeasible 'optimum'";
    // No sampled feasible point may be better.
    for (int trial = 0; trial < 2000; ++trial) {
      for (int j = 0; j < n; ++j) {
        pt[j] = inst.lp.lb[j] +
                rng.next_double() * (inst.lp.ub[j] - inst.lp.lb[j]);
      }
      if (point_feasible(inst.lp, pt)) {
        EXPECT_GE(point_cost(inst.lp, pt), res.objective - 1e-5);
      }
    }
  } else {
    ASSERT_EQ(res.status, LpStatus::kInfeasible);
    // No sampled point may be feasible (necessary condition only, but a
    // strong one at this density).
    for (int trial = 0; trial < 2000; ++trial) {
      for (int j = 0; j < n; ++j) {
        pt[j] = inst.lp.lb[j] +
                rng.next_double() * (inst.lp.ub[j] - inst.lp.lb[j]);
      }
      EXPECT_FALSE(point_feasible(inst.lp, pt, 1e-9))
          << "solver said infeasible but a feasible point exists";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexRandomTest, ::testing::Range(0, 60));

// --- revised vs dense differential fuzz --------------------------------------
//
// The dense tableau implementation is the oracle: on every random sparse
// instance both solvers must agree on the status and, when optimal, on the
// objective (the vertex itself may legitimately differ under ties). Batched
// 100 instances per test case to keep ctest granularity reasonable while
// totalling >= 500 instances across the suite.

class SimplexDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexDifferentialTest, RevisedMatchesDenseOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  for (int inst = 0; inst < 100; ++inst) {
    const int n = rng.next_int(1, 12);
    const int m = rng.next_int(1, 12);
    const auto lp = random_lp(rng, n, m).lp;
    LpParams dense_params;
    dense_params.use_dense = true;
    const auto revised = solve_lp(lp);
    const auto dense = solve_lp(lp, dense_params);
    ASSERT_EQ(revised.status, dense.status)
        << "status mismatch on seed " << GetParam() << " instance " << inst;
    if (revised.status == LpStatus::kOptimal) {
      EXPECT_NEAR(revised.objective, dense.objective, 1e-5)
          << "objective mismatch on seed " << GetParam() << " instance "
          << inst;
      EXPECT_TRUE(point_feasible(lp, revised.x))
          << "revised optimum infeasible on seed " << GetParam()
          << " instance " << inst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SimplexDifferentialTest,
                         ::testing::Range(0, 6));

// Warm-started re-solves after a single bound change — the branch & bound
// access pattern — must agree with cold solves of the child on every
// random instance (objective parity, or matching infeasibility).
class SimplexWarmFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexWarmFuzzTest, WarmChildMatchesColdChild) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 3);
  for (int inst = 0; inst < 60; ++inst) {
    const int n = rng.next_int(2, 10);
    const int m = rng.next_int(1, 10);
    auto lp = random_lp(rng, n, m).lp;
    const auto parent = solve_lp(lp);
    if (parent.status != LpStatus::kOptimal) continue;

    // Branch on a random variable at its relaxation value.
    const int j = rng.next_int(0, n - 1);
    const double v = parent.x[static_cast<std::size_t>(j)];
    if (rng.next_bool(0.5)) {
      lp.ub[static_cast<std::size_t>(j)] = std::floor(v);
    } else {
      lp.lb[static_cast<std::size_t>(j)] = std::floor(v) + 1.0;
    }
    if (lp.lb[static_cast<std::size_t>(j)] >
        lp.ub[static_cast<std::size_t>(j)]) {
      continue;  // empty box: B&B would never pose this child
    }

    const auto cold = solve_lp(lp);
    LpParams warm_params;
    warm_params.warm_basis = &parent.basis;
    const auto warm = solve_lp(lp, warm_params);
    ASSERT_EQ(warm.status, cold.status)
        << "status mismatch on seed " << GetParam() << " instance " << inst;
    if (cold.status == LpStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, cold.objective, 1e-5)
          << "objective mismatch on seed " << GetParam() << " instance "
          << inst;
      EXPECT_TRUE(point_feasible(lp, warm.x))
          << "warm optimum infeasible on seed " << GetParam() << " instance "
          << inst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SimplexWarmFuzzTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace mlsi::opt
