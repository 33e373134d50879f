// Tests for the Gomory mixed-integer cut generator.
//
// The make-or-break property of a cutting plane is *validity*: it may chop
// any amount of fractional relaxation volume, but never a single point that
// is feasible for the MILP. The fuzz suites below enforce that literally —
// every integer assignment's continuous slice must keep its exact optimum
// (dense-oracle LP) after the cuts are appended — alongside the efficacy
// property that kept cuts actually separate the fractional vertex.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "opt/cuts.hpp"
#include "opt/simplex.hpp"
#include "support/rng.hpp"

namespace mlsi::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Random mixed LP: the first \p n_int variables are the integer-constrained
/// ones (small integral boxes), the rest continuous. Rows are sparse with
/// mixed senses, always satisfiable at the box center side (not guaranteed
/// feasible — infeasible draws are skipped by the tests).
LpProblem random_mip(Rng& rng, int n_int, int n_cont, int m) {
  LpProblem lp;
  const int n = n_int + n_cont;
  lp.num_vars = n;
  lp.lb.resize(static_cast<std::size_t>(n));
  lp.ub.resize(static_cast<std::size_t>(n));
  lp.cost.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    if (j < n_int) {
      lp.lb[static_cast<std::size_t>(j)] = 0.0;
      lp.ub[static_cast<std::size_t>(j)] = rng.next_int(1, 2);
    } else {
      lp.lb[static_cast<std::size_t>(j)] = -rng.next_double() * 2.0;
      lp.ub[static_cast<std::size_t>(j)] = 1.0 + rng.next_double() * 2.0;
    }
    lp.cost[static_cast<std::size_t>(j)] = rng.next_double() * 6.0 - 3.0;
  }
  for (int r = 0; r < m; ++r) {
    LpRow row;
    double center = 0.0;
    for (int j = 0; j < n; ++j) {
      if (!rng.next_bool(0.6)) continue;
      const double c = rng.next_double() * 4.0 - 2.0;
      row.terms.emplace_back(j, c);
      center += c * 0.5 *
                (lp.lb[static_cast<std::size_t>(j)] +
                 lp.ub[static_cast<std::size_t>(j)]);
    }
    if (row.terms.empty()) continue;
    const int sense = rng.next_int(0, 2);
    const double slack = rng.next_double() * 2.0;
    if (sense == 0) {
      row.lo = -kInf;
      row.hi = center + slack;
    } else if (sense == 1) {
      row.lo = center - slack;
      row.hi = kInf;
    } else {
      row.lo = center - slack;
      row.hi = center + slack;
    }
    lp.rows.push_back(std::move(row));
  }
  return lp;
}

std::vector<char> integral_mask(int n_int, int n) {
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n_int; ++j) mask[static_cast<std::size_t>(j)] = 1;
  return mask;
}

/// Enumerates every integer assignment of the first \p n_int variables.
void for_each_integer_point(const LpProblem& lp, int n_int,
                            const std::function<void(std::vector<double>&)>& fn) {
  std::vector<double> fixed(static_cast<std::size_t>(n_int), 0.0);
  const std::function<void(int)> rec = [&](int j) {
    if (j == n_int) {
      fn(fixed);
      return;
    }
    const int lo = static_cast<int>(lp.lb[static_cast<std::size_t>(j)]);
    const int hi = static_cast<int>(lp.ub[static_cast<std::size_t>(j)]);
    for (int v = lo; v <= hi; ++v) {
      fixed[static_cast<std::size_t>(j)] = v;
      rec(j + 1);
    }
  };
  rec(0);
}

bool fractional(const LpResult& res, int n_int, double tol = 1e-6) {
  for (int j = 0; j < n_int; ++j) {
    const double v = res.x[static_cast<std::size_t>(j)];
    if (std::fabs(v - std::nearbyint(v)) > tol) return true;
  }
  return false;
}

TEST(CutsTest, GeneratesSeparatingCutOnTextbookInstance) {
  // min -x - y s.t. 3x + 2y <= 6, -3x + 2y <= 0; x, y integer in [0, 3].
  // LP optimum (1, 1.5) is fractional in y: a GMI cut must separate it.
  LpProblem lp;
  lp.num_vars = 2;
  lp.lb = {0, 0};
  lp.ub = {3, 3};
  lp.cost = {-1, -1};
  lp.rows.push_back(LpRow{{{0, 3.0}, {1, 2.0}}, -kInf, 6.0});
  lp.rows.push_back(LpRow{{{0, -3.0}, {1, 2.0}}, -kInf, 0.0});
  const LpResult root = solve_lp(lp);
  ASSERT_EQ(root.status, LpStatus::kOptimal);
  ASSERT_TRUE(fractional(root, 2));

  CutStats stats;
  const auto cuts = generate_gomory_cuts(lp, root, {1, 1}, &stats);
  ASSERT_FALSE(cuts.empty());
  EXPECT_EQ(stats.kept, static_cast<long>(cuts.size()));
  // Each cut separates the fractional vertex...
  for (const LpRow& cut : cuts) {
    double activity = 0.0;
    for (const auto& [j, c] : cut.terms) {
      activity += c * root.x[static_cast<std::size_t>(j)];
    }
    EXPECT_LT(activity, cut.lo) << "cut does not separate the LP vertex";
    // ...while every integer feasible point survives.
    for (int x = 0; x <= 3; ++x) {
      for (int y = 0; y <= 3; ++y) {
        if (3 * x + 2 * y > 6 || -3 * x + 2 * y > 0) continue;
        double a = 0.0;
        for (const auto& [j, c] : cut.terms) a += c * (j == 0 ? x : y);
        EXPECT_GE(a, cut.lo - 1e-7) << "cut chops (" << x << "," << y << ")";
      }
    }
  }
}

TEST(CutsTest, EmptyOnIntegralOrDegenerateInput) {
  LpProblem lp;
  lp.num_vars = 1;
  lp.lb = {0};
  lp.ub = {4};
  lp.cost = {1};
  lp.rows.push_back(LpRow{{{0, 1.0}}, 2.0, kInf});
  const LpResult root = solve_lp(lp);
  ASSERT_EQ(root.status, LpStatus::kOptimal);
  // Integral vertex: nothing to cut.
  EXPECT_TRUE(generate_gomory_cuts(lp, root, {1}).empty());
  // Non-optimal result: generator must refuse.
  LpResult bogus = root;
  bogus.status = LpStatus::kIterLimit;
  EXPECT_TRUE(generate_gomory_cuts(lp, bogus, {1}).empty());
  // Shape-mismatched basis: generator must refuse.
  LpResult truncated = root;
  truncated.basis.basic.clear();
  EXPECT_TRUE(generate_gomory_cuts(lp, truncated, {1}).empty());
}

// The heavyweight validity fuzz: for every random mixed instance with a
// fractional root, append the generated cuts and require that the *exact
// optimum of every integer slice* is untouched — computed with the dense
// oracle on both sides, so the revised solver is not grading its own
// homework. Any cut that chops any mixed-feasible point fails this.
class CutValidityFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CutValidityFuzzTest, NoCutChopsAnyIntegerSlice) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 29947 + 11);
  int generated_any = 0;
  for (int inst = 0; inst < 40; ++inst) {
    const int n_int = rng.next_int(2, 5);
    const int n_cont = rng.next_int(0, 3);
    const int m = rng.next_int(1, 6);
    const LpProblem lp = random_mip(rng, n_int, n_cont, m);
    const LpResult root = solve_lp(lp);
    if (root.status != LpStatus::kOptimal) continue;
    if (!fractional(root, n_int)) continue;

    CutStats stats;
    const auto cuts = generate_gomory_cuts(
        lp, root, integral_mask(n_int, lp.num_vars), &stats);
    EXPECT_EQ(stats.kept + stats.dropped, stats.generated);
    if (cuts.empty()) continue;
    ++generated_any;

    LpProblem cut_lp = lp;
    for (const LpRow& cut : cuts) cut_lp.rows.push_back(cut);

    LpParams oracle;
    oracle.use_dense = true;
    for_each_integer_point(lp, n_int, [&](std::vector<double>& fixed) {
      LpProblem slice = lp;
      LpProblem cut_slice = cut_lp;
      for (int j = 0; j < n_int; ++j) {
        slice.lb[static_cast<std::size_t>(j)] =
            slice.ub[static_cast<std::size_t>(j)] =
                fixed[static_cast<std::size_t>(j)];
        cut_slice.lb[static_cast<std::size_t>(j)] =
            cut_slice.ub[static_cast<std::size_t>(j)] =
                fixed[static_cast<std::size_t>(j)];
      }
      const LpResult before = solve_lp(slice, oracle);
      if (before.status != LpStatus::kOptimal) return;  // slice infeasible
      const LpResult after = solve_lp(cut_slice, oracle);
      ASSERT_EQ(after.status, LpStatus::kOptimal)
          << "cut made integer slice infeasible (inst " << inst << ")";
      EXPECT_NEAR(after.objective, before.objective, 1e-5)
          << "cut chopped the slice optimum (inst " << inst << ")";
    });
  }
  EXPECT_GT(generated_any, 0) << "fuzz produced no cuts; suite is vacuous";
}

INSTANTIATE_TEST_SUITE_P(Fuzz, CutValidityFuzzTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace mlsi::opt
