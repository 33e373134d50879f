// google-benchmark microbenchmarks for the optimization substrate and the
// synthesis hot paths: LP solves, MILP branch & bound, path enumeration,
// and end-to-end CP synthesis. These guard against performance regressions
// in the pieces every table/figure bench leans on.
//
// `micro_opt --smoke` skips the timed benchmarks and instead runs the
// regression gate wired into scripts/check.sh: on the 400-column suite the
// devex simplex must take exactly its pinned pivot total and match every
// status and objective of the dense oracle, and the parallel branch & bound
// must prove the same knapsack optimum at jobs 1, 2 and 8.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string_view>

#include "arch/crossbar.hpp"
#include "arch/paths.hpp"
#include "cases/cases.hpp"
#include "opt/milp.hpp"
#include "opt/simplex.hpp"
#include "support/rng.hpp"
#include "synth/pressure.hpp"
#include "synth/synthesizer.hpp"

namespace {

using namespace mlsi;

opt::LpProblem random_lp(int n, int m, std::uint64_t seed) {
  Rng rng(seed);
  opt::LpProblem lp;
  lp.num_vars = n;
  lp.lb.assign(n, 0.0);
  lp.ub.assign(n, 1.0);
  lp.cost.resize(n);
  for (auto& c : lp.cost) c = rng.next_double() * 2 - 1;
  for (int r = 0; r < m; ++r) {
    opt::LpRow row;
    double center = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.next_bool(0.3)) {
        const double a = rng.next_double() * 2 - 1;
        row.terms.emplace_back(j, a);
        center += 0.5 * a;
      }
    }
    row.lo = -std::numeric_limits<double>::infinity();
    row.hi = center + rng.next_double();
    lp.rows.push_back(std::move(row));
  }
  return lp;
}

void BM_SimplexRandomLp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto lp = random_lp(n, n / 2, 42);
  for (auto _ : state) {
    const auto res = opt::solve_lp(lp);
    benchmark::DoNotOptimize(res.objective);
  }
}
BENCHMARK(BM_SimplexRandomLp)->Arg(20)->Arg(60)->Arg(150)->Arg(400);

// The retired dense tableau (LpParams::use_dense), kept as the differential
// oracle — benchmarked here so the revised-simplex gain stays measurable.
void BM_SimplexRandomLpDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto lp = random_lp(n, n / 2, 42);
  opt::LpParams params;
  params.use_dense = true;
  for (auto _ : state) {
    const auto res = opt::solve_lp(lp, params);
    benchmark::DoNotOptimize(res.objective);
  }
}
BENCHMARK(BM_SimplexRandomLpDense)->Arg(20)->Arg(60)->Arg(150)->Arg(400);

// Hard correlated knapsack: value ~ weight + noise keeps the LP bound weak,
// so the tree is deep enough for the parallel search to matter.
opt::Model correlated_knapsack(int n, std::uint64_t seed) {
  Rng rng(seed);
  opt::Model model;
  opt::LinExpr weight;
  opt::LinExpr value;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const opt::Var x = model.add_binary("x");
    const double w = 1.0 + rng.next_double() * 9;
    weight.add(x, w);
    value.add(x, w + rng.next_double() - 0.5);
    total += w;
  }
  model.add_constraint(weight, opt::Sense::kLe, 0.5 * total);
  model.set_objective(value, /*minimize=*/false);
  return model;
}

// Parallel branch & bound node throughput: same proven optimum at every
// jobs count, wall clock and nodes/s are what move.
void BM_MilpParallel(benchmark::State& state) {
  const auto model = correlated_knapsack(30, 99);
  opt::MilpParams params;
  params.jobs = static_cast<int>(state.range(0));
  long nodes = 0;
  for (auto _ : state) {
    const auto sol = opt::solve_milp(model, params);
    nodes += sol.stats.nodes;
    benchmark::DoNotOptimize(sol.objective);
  }
  state.counters["nodes_per_s"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MilpParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_MilpKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  opt::Model model;
  opt::LinExpr weight;
  opt::LinExpr value;
  for (int i = 0; i < n; ++i) {
    const opt::Var x = model.add_binary("x");
    weight.add(x, 1.0 + rng.next_double() * 9);
    value.add(x, 1.0 + rng.next_double() * 9);
  }
  model.add_constraint(weight, opt::Sense::kLe, 2.5 * n);
  model.set_objective(value, /*minimize=*/false);
  for (auto _ : state) {
    const auto sol = opt::solve_milp(model);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(12)->Arg(20)->Arg(28);

// Same search with the dense tableau behind branch & bound — the pre-warm-
// start baseline for the EXPERIMENTS.md before/after table.
void BM_MilpKnapsackDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  opt::Model model;
  opt::LinExpr weight;
  opt::LinExpr value;
  for (int i = 0; i < n; ++i) {
    const opt::Var x = model.add_binary("x");
    weight.add(x, 1.0 + rng.next_double() * 9);
    value.add(x, 1.0 + rng.next_double() * 9);
  }
  model.add_constraint(weight, opt::Sense::kLe, 2.5 * n);
  model.set_objective(value, /*minimize=*/false);
  opt::MilpParams params;
  params.lp.use_dense = true;
  for (auto _ : state) {
    const auto sol = opt::solve_milp(model, params);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_MilpKnapsackDense)->Arg(12)->Arg(20)->Arg(28);

// The production MILP path: clique-cover pressure sharing (constraints
// 3.14–3.17) on a synthetic valve compatibility matrix. Its LP relaxations
// carry hundreds of rows, which is where the sparse revised simplex and the
// dual warm starts earn their keep.
std::vector<std::vector<bool>> random_compat(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<bool>> compat(n, std::vector<bool>(n, true));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const bool ok = rng.next_bool(0.7);
      compat[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = ok;
      compat[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = ok;
    }
  }
  return compat;
}

void BM_PressureIlp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto compat = random_compat(n, 11);
  opt::MilpParams params;
  params.lp.use_dense = state.range(1) != 0;
  params.cut_rounds = static_cast<int>(state.range(2));
  long nodes = 0;
  double precut = 0.0;
  double postcut = 0.0;
  for (auto _ : state) {
    const auto groups = synth::pressure_groups_ilp(compat, params);
    nodes = groups.milp_stats.nodes;
    precut = groups.milp_stats.root_bound_precut;
    postcut = groups.milp_stats.root_bound;
    benchmark::DoNotOptimize(groups.num_groups);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["root_precut"] = precut;
  state.counters["root_postcut"] = postcut;
}
BENCHMARK(BM_PressureIlp)
    ->ArgsProduct({{8, 10, 12}, {0, 1}, {0, 3}})
    ->ArgNames({"valves", "dense", "cuts"});

void BM_EnumeratePaths(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const arch::SwitchTopology topo = arch::make_crossbar(k);
  for (auto _ : state) {
    const auto paths = arch::enumerate_paths(topo);
    benchmark::DoNotOptimize(paths.size());
  }
}
BENCHMARK(BM_EnumeratePaths)->Arg(2)->Arg(3)->Arg(4);

void BM_SynthesizeChipFixed(benchmark::State& state) {
  const auto spec = cases::chip_sw1(synth::BindingPolicy::kFixed);
  for (auto _ : state) {
    const auto result = synth::synthesize(spec);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_SynthesizeChipFixed);

void BM_SynthesizeTable42Clockwise(benchmark::State& state) {
  const auto spec = cases::table42_example();
  for (auto _ : state) {
    const auto result = synth::synthesize(spec);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_SynthesizeTable42Clockwise)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Perf smoke gate (scripts/check.sh). Returns 0 iff every check holds.

bool smoke_fail(const char* what) {
  std::fprintf(stderr, "micro_opt --smoke FAILED: %s\n", what);
  return false;
}

// Devex pivot total over the eight 400 × 200 instances, pinned exactly: the
// simplex is deterministic, and an altered weight update or pricing scan
// changes the total.
constexpr long kSmokeDevexPivots = 14676;

// The devex simplex must take exactly the pinned pivot total and agree with
// the dense oracle on every status and objective.
bool smoke_devex() {
  long devex = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto lp = random_lp(400, 200, seed);
    const auto rv = opt::solve_lp(lp);
    opt::LpParams dense;
    dense.use_dense = true;
    const auto rd = opt::solve_lp(lp, dense);
    if (rd.status != rv.status) {
      return smoke_fail("devex status differs from the dense oracle");
    }
    if (rd.status == opt::LpStatus::kOptimal &&
        std::fabs(rd.objective - rv.objective) >
            1e-6 * (1.0 + std::fabs(rd.objective))) {
      return smoke_fail("devex objective differs from the dense oracle");
    }
    devex += rv.iterations;
  }
  std::printf("smoke devex: %ld pivots (pinned %ld), dense oracle agrees\n",
              devex, kSmokeDevexPivots);
  if (devex != kSmokeDevexPivots) {
    return smoke_fail("devex pivot total differs from the pinned count");
  }
  return true;
}

// The parallel tree search must prove the identical optimum at every jobs
// count — parallelism may reorder the search, never change the answer.
bool smoke_parallel() {
  const auto model = correlated_knapsack(26, 5);
  double reference = 0.0;
  for (const int jobs : {1, 2, 8}) {
    opt::MilpParams params;
    params.jobs = jobs;
    const auto sol = opt::solve_milp(model, params);
    if (sol.status != opt::MilpStatus::kOptimal) {
      return smoke_fail("parallel B&B failed to prove optimality");
    }
    if (jobs == 1) {
      reference = sol.objective;
    } else if (std::fabs(sol.objective - reference) > 1e-6) {
      return smoke_fail("parallel B&B optimum differs across jobs counts");
    }
    std::printf("smoke parallel: jobs=%d objective=%.6f nodes=%ld\n", jobs,
                sol.objective, sol.stats.nodes);
  }
  return true;
}

int run_smoke() {
  const bool devex_ok = smoke_devex();
  const bool parallel_ok = smoke_parallel();
  const bool ok = devex_ok && parallel_ok;
  std::printf("micro_opt --smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--smoke") return run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
