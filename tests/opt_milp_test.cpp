// Tests for the branch & bound MILP solver, including exhaustive
// cross-validation against brute-force enumeration on random binary models —
// this exercises the simplex through hundreds of branch-node relaxations.

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "opt/milp.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace mlsi::opt {
namespace {

TEST(MilpTest, Knapsack) {
  // max 10a + 6b + 4c s.t. a + b + c <= 2 (binary) -> a, b -> 16.
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  const Var c = m.add_binary("c");
  m.add_constraint(LinExpr{a} + LinExpr{b} + LinExpr{c}, Sense::kLe, 2.0);
  m.set_objective(LinExpr{a} * 10.0 + LinExpr{b} * 6.0 + LinExpr{c} * 4.0,
                  /*minimize=*/false);
  const Solution s = solve_milp(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 16.0, 1e-6);
  EXPECT_TRUE(s.value_bool(a));
  EXPECT_TRUE(s.value_bool(b));
  EXPECT_FALSE(s.value_bool(c));
}

TEST(MilpTest, IntegerRounding) {
  // min y s.t. 2y >= 7, y integer in [0, 10] -> y = 4 (LP gives 3.5).
  Model m;
  const Var y = m.add_integer(0, 10, "y");
  m.add_constraint(LinExpr{y} * 2.0, Sense::kGe, 7.0);
  m.set_objective(LinExpr{y});
  const Solution s = solve_milp(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_EQ(s.value_int(y), 4);
}

TEST(MilpTest, InfeasibleBinaryModel) {
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  m.add_constraint(LinExpr{a} + LinExpr{b}, Sense::kGe, 1.5);
  m.add_constraint(LinExpr{a} + LinExpr{b}, Sense::kLe, 1.0);
  m.set_objective(LinExpr{a});
  EXPECT_EQ(solve_milp(m).status, MilpStatus::kInfeasible);
}

TEST(MilpTest, QuadraticObjectiveLinearized) {
  // max 3ab - c with a + c >= 1: take a = b = 1, c = 0 -> 3.
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  const Var c = m.add_binary("c");
  m.add_constraint(LinExpr{a} + LinExpr{c}, Sense::kGe, 1.0);
  QuadExpr obj{LinExpr{c} * -1.0};
  obj.add_product(a, b, 3.0);
  m.set_objective(obj, /*minimize=*/false);
  const Solution s = solve_milp(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-6);
  EXPECT_TRUE(s.value_bool(a));
  EXPECT_TRUE(s.value_bool(b));
  // Reported values cover exactly the caller's variables.
  EXPECT_EQ(s.values.size(), 3u);
}

TEST(MilpTest, QuadraticConstraintLinearized) {
  // Paper-style conflict: x1*x2 = 0 (cannot co-select), maximize x1 + x2.
  Model m;
  const Var x1 = m.add_binary("x1");
  const Var x2 = m.add_binary("x2");
  QuadExpr conflict;
  conflict.add_product(x1, x2, 1.0);
  m.add_constraint(conflict, Sense::kLe, 0.0, "conflict");
  m.set_objective(LinExpr{x1} + LinExpr{x2}, /*minimize=*/false);
  const Solution s = solve_milp(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(MilpTest, TimeLimitReturnsGracefully) {
  // A model large enough not to finish instantly, with an absurd deadline.
  Model m;
  std::vector<Var> xs;
  LinExpr sum;
  for (int i = 0; i < 40; ++i) {
    xs.push_back(m.add_binary("x" + std::to_string(i)));
    sum += LinExpr{xs.back()} * (1.0 + 0.37 * i);
  }
  m.add_constraint(sum, Sense::kLe, 17.3);
  m.set_objective(sum, /*minimize=*/false);
  MilpParams params;
  params.deadline = support::Deadline::after(1e-6);
  const Solution s = solve_milp(m, params);
  EXPECT_TRUE(s.status == MilpStatus::kFeasible ||
              s.status == MilpStatus::kUnknown);
}

TEST(MilpTest, MaximizeEqualsNegatedMinimize) {
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    Model m;
    std::vector<Var> xs;
    for (int i = 0; i < 6; ++i) xs.push_back(m.add_binary("x"));
    LinExpr obj;
    LinExpr row;
    for (int i = 0; i < 6; ++i) {
      obj.add(xs[i], rng.next_double() * 4 - 2);
      row.add(xs[i], 1.0);
    }
    m.add_constraint(row, Sense::kLe, 3.0);

    Model m2 = m;
    m.set_objective(obj, /*minimize=*/false);
    m2.set_objective(obj * -1.0, /*minimize=*/true);
    const Solution a = solve_milp(m);
    const Solution b = solve_milp(m2);
    ASSERT_EQ(a.status, MilpStatus::kOptimal);
    ASSERT_EQ(b.status, MilpStatus::kOptimal);
    EXPECT_NEAR(a.objective, -b.objective, 1e-6);
  }
}

TEST(MilpTest, BranchPriorityDoesNotChangeOptimum) {
  Rng rng(512);
  for (int round = 0; round < 8; ++round) {
    Model m;
    std::vector<Var> xs;
    LinExpr row;
    LinExpr obj;
    for (int i = 0; i < 10; ++i) {
      xs.push_back(m.add_binary("x"));
      row.add(xs.back(), 1.0 + rng.next_double());
      obj.add(xs.back(), rng.next_double() * 5);
    }
    m.add_constraint(row, Sense::kLe, 6.0);
    m.set_objective(obj, /*minimize=*/false);
    Model prioritized = m;
    for (int i = 0; i < 10; ++i) {
      prioritized.set_branch_priority(xs[static_cast<std::size_t>(i)], i % 3);
    }
    const Solution plain = solve_milp(m);
    const Solution prio = solve_milp(prioritized);
    ASSERT_EQ(plain.status, MilpStatus::kOptimal);
    ASSERT_EQ(prio.status, MilpStatus::kOptimal);
    EXPECT_NEAR(plain.objective, prio.objective, 1e-6);
  }
}

// --- exhaustive cross-validation ------------------------------------------

struct BruteResult {
  bool feasible = false;
  double best = std::numeric_limits<double>::infinity();
};

BruteResult brute_force_min(const Model& m) {
  const int n = m.num_vars();
  BruteResult out;
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  // All vars binary by construction in these tests.
  for (int mask = 0; mask < (1 << n); ++mask) {
    for (int j = 0; j < n; ++j) x[static_cast<std::size_t>(j)] = (mask >> j) & 1;
    if (!m.is_feasible(x, 1e-9)) continue;
    out.feasible = true;
    const double obj = m.objective().evaluate(x);
    out.best = std::min(out.best, obj);
  }
  return out;
}

class MilpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MilpRandomTest, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 29);
  const int n = rng.next_int(3, 11);
  const int rows = rng.next_int(1, 7);
  Model m;
  std::vector<Var> xs;
  for (int j = 0; j < n; ++j) xs.push_back(m.add_binary("x"));

  for (int r = 0; r < rows; ++r) {
    const bool quadratic = rng.next_bool(0.3);
    QuadExpr e;
    double center = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.next_bool(0.5)) {
        const double c = static_cast<double>(rng.next_int(-3, 3));
        e.add(xs[static_cast<std::size_t>(j)], c);
        center += 0.5 * c;
      }
    }
    if (quadratic) {
      const int a = rng.next_int(0, n - 1);
      const int b = rng.next_int(0, n - 1);
      if (a != b) {
        e.add_product(xs[static_cast<std::size_t>(a)],
                      xs[static_cast<std::size_t>(b)],
                      static_cast<double>(rng.next_int(-2, 2)));
      }
    }
    const int sense = rng.next_int(0, 2);
    const double rhs = std::floor(center) + rng.next_int(-1, 2);
    if (sense == 0) {
      m.add_constraint(e, Sense::kLe, rhs);
    } else if (sense == 1) {
      m.add_constraint(e, Sense::kGe, rhs);
    } else {
      m.add_constraint(e, Sense::kEq, rhs);
    }
  }

  QuadExpr obj;
  for (int j = 0; j < n; ++j) {
    obj.add(xs[static_cast<std::size_t>(j)], static_cast<double>(rng.next_int(-4, 4)));
  }
  if (rng.next_bool(0.4)) {
    obj.add_product(xs[0], xs[static_cast<std::size_t>(n - 1)],
                    static_cast<double>(rng.next_int(-3, 3)));
  }
  m.set_objective(obj, /*minimize=*/true);

  const BruteResult expected = brute_force_min(m);
  const Solution got = solve_milp(m);
  if (!expected.feasible) {
    EXPECT_EQ(got.status, MilpStatus::kInfeasible);
  } else {
    ASSERT_EQ(got.status, MilpStatus::kOptimal)
        << "expected optimum " << expected.best;
    EXPECT_NEAR(got.objective, expected.best, 1e-6);
    // The incumbent itself must satisfy the model.
    std::vector<double> vals = got.values;
    EXPECT_TRUE(m.is_feasible(vals, 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MilpRandomTest, ::testing::Range(0, 80));

// --- warm-start accounting ---------------------------------------------------

/// A knapsack fractional enough to force real branching.
Model branching_model() {
  Model m;
  std::vector<Var> xs;
  for (int j = 0; j < 8; ++j) xs.push_back(m.add_binary("x"));
  QuadExpr obj;
  LinExpr sum;
  for (int j = 0; j < 8; ++j) {
    obj.add(xs[static_cast<std::size_t>(j)], j % 2 == 0 ? -3.0 : -5.0);
    sum += LinExpr{xs[static_cast<std::size_t>(j)]} * (1.0 + 0.5 * j);
  }
  m.add_constraint(sum, Sense::kLe, 9.7);
  m.set_objective(obj, /*minimize=*/true);
  return m;
}

TEST(MilpTest, ChildNodesWarmStartFromParentBasis) {
  // Every non-root node is posed with its parent's basis, so cold starts
  // stay at exactly the LPs that could not adopt one (the root, plus any
  // repair fallback).
  const Model m = branching_model();
  // Root cuts add extra (warm) LP re-solves on node 1, which would blur the
  // one-LP-per-node accounting this test pins down — disable them here.
  MilpParams params;
  params.cut_rounds = 0;
  const Solution s = solve_milp(m, params);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_EQ(s.stats.warm_starts + s.stats.cold_starts, s.stats.nodes);
  ASSERT_GT(s.stats.nodes, 1) << "model did not branch; test is vacuous";
  // Every non-root node offers a parent basis; warm adoption must be the
  // overwhelming norm (cold fallbacks only on repair, which is rare).
  EXPECT_GE(s.stats.warm_starts, (s.stats.nodes - 1) / 2);
  EXPECT_GE(s.stats.cold_starts, 1);  // the root has no parent
  EXPECT_GT(s.stats.lp_factorizations, 0);
}

// --- search events -----------------------------------------------------------

TEST(MilpTest, SearchEventsAreTraceInstants) {
  // The branch & bound reports its search as trace instants: one milp.node
  // per node, milp.branch / milp.prune / milp.incumbent as they happen and
  // one milp.done, each with its fields under "args".
  const Model m = branching_model();
  MilpParams params;
  params.cut_rounds = 0;  // branch on the raw relaxation

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.enable();
  const Solution s = solve_milp(m, params);
  tracer.disable();
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  ASSERT_GT(s.stats.nodes, 1) << "model did not branch; test is vacuous";
  const auto doc = json::parse(tracer.to_json());
  tracer.reset();
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();

  std::map<std::string, int> count;
  const auto has = [](const json::Value& args,
                      std::initializer_list<const char*> keys) {
    for (const char* key : keys) {
      if (args.find(key) == nullptr) return ::testing::AssertionFailure() << key;
    }
    return ::testing::AssertionSuccess();
  };
  for (const json::Value& ev : doc->as_array()) {
    const std::string name = ev.get_string("name", "");
    if (name.rfind("milp.", 0) != 0 || ev.get_string("ph", "") != "i") continue;
    ++count[name];
    const json::Value* args = ev.find("args");
    ASSERT_NE(args, nullptr) << name;
    ASSERT_TRUE(args->is_object()) << name;
    if (name == "milp.node") {
      EXPECT_TRUE(has(*args, {"node", "depth", "warm", "bound"}));
    } else if (name == "milp.branch") {
      EXPECT_TRUE(has(*args, {"node", "var", "value"}));
    } else if (name == "milp.prune") {
      EXPECT_TRUE(has(*args, {"node", "reason"}));
      const std::string reason = args->get_string("reason", "");
      EXPECT_TRUE(reason == "bound" || reason == "infeasible") << reason;
    } else if (name == "milp.incumbent") {
      EXPECT_TRUE(has(*args, {"engine", "obj", "nodes", "gap"}));
      EXPECT_EQ(args->get_string("engine", ""), "milp");
    } else if (name == "milp.done") {
      EXPECT_TRUE(has(*args, {"status", "nodes", "cuts", "jobs", "warm_starts",
                              "cold_starts", "obj"}));
      EXPECT_EQ(args->get_string("status", ""), "optimal");
      EXPECT_EQ(args->get_number("nodes", -1), s.stats.nodes);
      EXPECT_NEAR(args->get_number("obj", 0.0), s.objective, 1e-9);
    } else {
      ADD_FAILURE() << "unexpected search instant " << name;
    }
  }
  EXPECT_EQ(count["milp.node"], s.stats.nodes);
  EXPECT_GE(count["milp.branch"], 1);
  EXPECT_GE(count["milp.prune"], 1);
  EXPECT_GE(count["milp.incumbent"], 1);
  EXPECT_EQ(count["milp.done"], 1);
}

TEST(MilpTest, DenseLpEngineAgreesWithRevised) {
  // The whole branch & bound, run once per LP engine, must land on the
  // same optimum (tree shapes may differ: vertices can tie).
  Rng rng(424243);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = rng.next_int(4, 9);
    Model m;
    std::vector<Var> xs;
    for (int j = 0; j < n; ++j) xs.push_back(m.add_binary("x"));
    LinExpr sum;
    QuadExpr obj;
    for (int j = 0; j < n; ++j) {
      sum += LinExpr{xs[static_cast<std::size_t>(j)]} *
             static_cast<double>(rng.next_int(1, 4));
      obj.add(xs[static_cast<std::size_t>(j)],
              static_cast<double>(rng.next_int(-5, -1)));
    }
    m.add_constraint(sum, Sense::kLe, static_cast<double>(rng.next_int(2, 8)));
    m.set_objective(obj, /*minimize=*/true);

    MilpParams dense_params;
    dense_params.lp.use_dense = true;
    const Solution a = solve_milp(m);
    const Solution b = solve_milp(m, dense_params);
    ASSERT_EQ(a.status, MilpStatus::kOptimal);
    ASSERT_EQ(b.status, MilpStatus::kOptimal);
    EXPECT_NEAR(a.objective, b.objective, 1e-6) << "trial " << trial;
  }
}

// --- root Gomory cuts --------------------------------------------------------

TEST(MilpTest, RootCutsTightenBoundWithoutChangingOptimum) {
  // Cut rounds must improve (or at worst keep) the root bound and land on
  // the identical proven optimum; the node count should not grow.
  Model m;
  std::vector<Var> xs;
  QuadExpr obj;
  LinExpr sum;
  for (int j = 0; j < 8; ++j) {
    xs.push_back(m.add_binary("x"));
    obj.add(xs.back(), j % 2 == 0 ? -3.0 : -5.0);
    sum += LinExpr{xs.back()} * (1.0 + 0.5 * j);
  }
  m.add_constraint(sum, Sense::kLe, 9.7);
  m.set_objective(obj, /*minimize=*/true);

  MilpParams with_cuts;  // cut_rounds defaults on
  MilpParams no_cuts;
  no_cuts.cut_rounds = 0;
  const Solution cut = solve_milp(m, with_cuts);
  const Solution plain = solve_milp(m, no_cuts);
  ASSERT_EQ(cut.status, MilpStatus::kOptimal);
  ASSERT_EQ(plain.status, MilpStatus::kOptimal);
  EXPECT_NEAR(cut.objective, plain.objective, 1e-6);
  // Minimize convention: a tighter root lower bound is *larger*.
  EXPECT_GE(cut.stats.root_bound, plain.stats.root_bound - 1e-9);
  EXPECT_NEAR(cut.stats.root_bound_precut, plain.stats.root_bound, 1e-6);
  EXPECT_GT(cut.stats.cuts_applied, 0) << "no cut fired; test is vacuous";
  EXPECT_LE(cut.stats.nodes, plain.stats.nodes);
}

TEST(MilpTest, CutsPreserveBruteForceOptimum) {
  // Cross-validation of the cut machinery: on random binary models the
  // cutting solver must agree with exhaustive enumeration — a single
  // invalid cut would chop off the optimum and fail this.
  Rng rng(77717);
  for (int round = 0; round < 30; ++round) {
    const int n = rng.next_int(4, 10);
    Model m;
    std::vector<Var> xs;
    LinExpr sum;
    QuadExpr obj;
    for (int j = 0; j < n; ++j) {
      xs.push_back(m.add_binary("x"));
      sum += LinExpr{xs.back()} * (0.5 + rng.next_double() * 3.0);
      obj.add(xs.back(), rng.next_double() * 8.0 - 4.0);
    }
    m.add_constraint(sum, Sense::kLe,
                     0.3 + rng.next_double() * static_cast<double>(n));
    m.set_objective(obj, /*minimize=*/true);

    MilpParams params;
    params.cut_rounds = 4;  // lean harder on the generator than the default
    const BruteResult expected = brute_force_min(m);
    const Solution got = solve_milp(m, params);
    ASSERT_TRUE(expected.feasible);  // x = 0 is always feasible here
    ASSERT_EQ(got.status, MilpStatus::kOptimal) << "round " << round;
    EXPECT_NEAR(got.objective, expected.best, 1e-6) << "round " << round;
  }
}

// --- parallel branch & bound -------------------------------------------------

TEST(MilpTest, ParallelSearchProvesIdenticalOptimum) {
  // The jobs knob changes the search order, never the answer: every job
  // count must prove the same optimum on models hard enough to branch.
  // (This test also runs under TSan via check.sh.)
  Rng rng(90901);
  for (int round = 0; round < 6; ++round) {
    const int n = rng.next_int(8, 14);
    Model m;
    std::vector<Var> xs;
    LinExpr sum;
    QuadExpr obj;
    for (int j = 0; j < n; ++j) {
      xs.push_back(m.add_binary("x"));
      sum += LinExpr{xs.back()} * (1.0 + rng.next_double() * 2.0);
      obj.add(xs.back(), -1.0 - rng.next_double() * 5.0);
    }
    m.add_constraint(sum, Sense::kLe,
                     static_cast<double>(n) * 0.45 + rng.next_double());
    m.set_objective(obj, /*minimize=*/true);

    Solution serial;
    for (const int jobs : {1, 2, 8}) {
      MilpParams params;
      params.jobs = jobs;
      const Solution s = solve_milp(m, params);
      ASSERT_EQ(s.status, MilpStatus::kOptimal)
          << "round " << round << " jobs " << jobs;
      if (jobs == 1) {
        serial = s;
      } else {
        EXPECT_NEAR(s.objective, serial.objective, 1e-6)
            << "round " << round << " jobs " << jobs;
      }
    }
  }
}

TEST(MilpTest, ParallelSearchHonorsStopToken) {
  // A pre-tripped token must unwind every worker promptly and report a
  // truncated status, exactly like the serial path.
  Model m;
  std::vector<Var> xs;
  LinExpr sum;
  QuadExpr obj;
  for (int j = 0; j < 30; ++j) {
    xs.push_back(m.add_binary("x"));
    sum += LinExpr{xs.back()} * (1.0 + 0.37 * j);
    obj.add(xs.back(), -1.0 - 0.61 * j);
  }
  m.add_constraint(sum, Sense::kLe, 41.0);
  m.set_objective(obj, /*minimize=*/true);
  support::StopSource cancel;
  cancel.request_stop();
  MilpParams params;
  params.jobs = 4;
  params.stop = cancel.token();
  const Solution s = solve_milp(m, params);
  EXPECT_TRUE(s.status == MilpStatus::kFeasible ||
              s.status == MilpStatus::kUnknown);
}

}  // namespace
}  // namespace mlsi::opt
