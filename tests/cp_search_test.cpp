// CP search: the symmetry rules, the split of both free policies over
// their root units (the same answer at every job count) and — the ground
// truth — verdict/objective parity between the default search, the
// unreduced search (cp_symmetry off), the independent IQP model and an
// exhaustive oracle that shares no code with the search, on randomized
// instances. The Learning* suite names predate the removal of nogood
// learning from the search; they are kept so the test IDs stay stable.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/crossbar.hpp"
#include "arch/gru.hpp"
#include "arch/paths.hpp"
#include "cases/artificial.hpp"
#include "cases/cases.hpp"
#include "obs/obs.hpp"
#include "support/executor.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"
#include "synth/cp_engine.hpp"
#include "synth/iqp_engine.hpp"

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
  const arch::PinSymmetries& syms = paths.pin_symmetries();
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

class CrossbarRotationTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossbarRotationTest, AllShortestPathsVerifyTheFourRotations) {
  // With every shortest path kept, the path set is closed under the
  // crossbar's rotations on 8, 12 and 16 pins alike (reflections never
  // verify). A rotation by one side shifts the clockwise pin index by k,
  // so the orbit representatives are the first side's k pins. The default
  // cap of 16 paths per pair drops shortest paths on 12 and 16 pins (488 of
  // 504, 1,396 of 1,948), and there only the identity verifies.
  const int k = GetParam();
  const arch::SwitchTopology topo = arch::make_crossbar(k);
  arch::PathEnumOptions all_shortest;
  all_shortest.max_paths_per_pair = 1 << 20;
  const arch::PathSet paths = arch::enumerate_paths(topo, all_shortest);
  const arch::PinSymmetries& syms = paths.pin_symmetries();
  EXPECT_EQ(syms.group_size(), 4);
  for (int pin = 0; pin < topo.num_pins(); ++pin) {
    EXPECT_EQ(syms.orbit_min(pin), pin % k) << "pin " << pin;
  }
  const arch::PathSet capped = arch::enumerate_paths(topo);
  EXPECT_EQ(capped.pin_symmetries().group_size(), k == 2 ? 4 : 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllShortest, CrossbarRotationTest, ::testing::Values(2, 3, 4),
    [](const ::testing::TestParamInfo<int>& info) {
      return "pins" + std::to_string(4 * info.param);
    });

TEST(SymmetryTest, OrbitMinFollowsTheCycle) {
  arch::PinSymmetries syms({{1, 2, 3, 0}});
  EXPECT_EQ(syms.group_size(), 2);
  // One application of the 4-cycle per query: 3 -> 0 is reachable.
  EXPECT_EQ(syms.orbit_min(3), 0);
  EXPECT_EQ(syms.orbit_min(0), 0);
}

TEST(SymmetryTest, FirstBindingRangesOverOrbitRepresentatives) {
  // Where rotations verify, the first binding of an unfixed search ranges
  // over one pin per orbit (pins 0 and 1 on both switches), and the
  // module precedence chains order the interchangeable modules: nucleic
  // acid's two outlets of M1, and its single-flow mixers M2 and M3 with
  // their chambers. Both prove the optimum of the search over the full
  // binding space, whose node counts are pinned too: the unreduced search
  // is the baseline every rule is measured against, and no rule may move
  // it.
  EngineParams params;
  params.deadline = support::Deadline::after(60.0);
  EngineParams unreduced = params;
  unreduced.cp_symmetry = false;
  const ProblemSpec spec = cases::nucleic_acid(BindingPolicy::kUnfixed);
  const arch::SwitchModel& crossbar = arch::switch_model(2);
  const arch::SwitchTopology gru = arch::make_gru(1);
  const arch::PathSet gru_paths = arch::enumerate_paths(gru);
  const struct {
    const char* name;
    const arch::SwitchTopology& topo;
    const arch::PathSet& paths;
    long nodes;
    long unreduced_nodes;
  } switches[] = {{"crossbar", crossbar.topology, crossbar.paths, 810, 5'151},
                  {"gru", gru, gru_paths, 148, 1'066}};
  for (const auto& sw : switches) {
    EXPECT_TRUE(sw.paths.pin_symmetries().nontrivial()) << sw.name;
    const auto reduced = solve_cp(sw.topo, sw.paths, spec, params);
    const auto full = solve_cp(sw.topo, sw.paths, spec, unreduced);
    ASSERT_TRUE(reduced.ok()) << sw.name << ": " << reduced.status().to_string();
    ASSERT_TRUE(full.ok()) << sw.name << ": " << full.status().to_string();
    EXPECT_EQ(reduced->stats.nodes, sw.nodes) << sw.name;
    EXPECT_EQ(full->stats.nodes, sw.unreduced_nodes) << sw.name;
    EXPECT_TRUE(reduced->stats.proven_optimal) << sw.name;
    EXPECT_NEAR(reduced->objective, full->objective, 1e-9) << sw.name;
  }
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
  // feasible, the same optimal objective — both proven. The default
  // solves' node total is pinned too (the same at every job count): any
  // change to pruning moves it.
  int feasible = 0;
  int infeasible = 0;
  long default_nodes = 0;
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
    default_nodes += reduced->stats.nodes;
    ++feasible;
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(feasible, 20);
  EXPECT_GT(infeasible, 5);
  EXPECT_EQ(default_nodes, 515'354);
}

/// The candidate paths of \p all through the crossbar's innermost vertices
/// (those farthest from every pin: the centre of the 8- and 16-pin grids,
/// the 2x2 core of the 12-pin one). The restriction is rotation-invariant,
/// so the restricted set verifies the symmetries \p all verifies.
arch::PathSet innermost_paths(const arch::SwitchTopology& topo,
                              const arch::PathSet& all) {
  const auto n = static_cast<std::size_t>(topo.num_vertices());
  std::vector<int> depth(n, -1);
  std::vector<int> frontier = topo.pins_clockwise();
  for (const int pin : frontier) depth[static_cast<std::size_t>(pin)] = 0;
  int deepest = 0;
  while (!frontier.empty()) {
    std::vector<int> next;
    for (const int v : frontier) {
      for (const int sid : topo.incident(v)) {
        const int w = topo.segment(sid).other(v);
        if (depth[static_cast<std::size_t>(w)] >= 0) continue;
        depth[static_cast<std::size_t>(w)] = depth[static_cast<std::size_t>(v)] + 1;
        deepest = depth[static_cast<std::size_t>(w)];
        next.push_back(w);
      }
    }
    frontier = std::move(next);
  }
  std::vector<arch::Path> kept;
  for (const arch::Path& path : all.paths()) {
    if (std::any_of(path.vertices.begin(), path.vertices.end(), [&](int v) {
          return depth[static_cast<std::size_t>(v)] == deepest;
        })) {
      kept.push_back(path);
    }
  }
  return arch::PathSet(&topo, std::move(kept));
}

/// Calls \p fn(topo, paths, spec, what) on the 12- and 16-pin unfixed fuzz:
/// per crossbar, four path-set families (every shortest path, where the
/// rotations verify, and the default cap, where only the identity does;
/// each also restricted to the paths through the innermost vertices and to
/// one flow set) and eight specs per family.
///
/// On the full path sets these instances are all feasible: an inlet and
/// its outlets can take a run of adjacent boundary pins, apart from every
/// other inlet. Restricted to paths through the innermost vertices and to
/// one flow set, where every two inlets must stay vertex-disjoint, many
/// are infeasible.
template <typename Fn>
void for_each_wide_unfixed_instance(Fn&& fn) {
  arch::PathEnumOptions all_shortest;
  all_shortest.max_paths_per_pair = 1 << 20;
  for (const int k : {3, 4}) {
    const arch::SwitchTopology topo = arch::make_crossbar(k);
    const arch::PathSet rotations = arch::enumerate_paths(topo, all_shortest);
    const arch::PathSet capped = arch::enumerate_paths(topo);
    const arch::PathSet rotations_inner = innermost_paths(topo, rotations);
    const arch::PathSet capped_inner = innermost_paths(topo, capped);
    ASSERT_EQ(rotations.pin_symmetries().group_size(), 4);
    ASSERT_EQ(rotations_inner.pin_symmetries().group_size(), 4);
    ASSERT_FALSE(capped.pin_symmetries().nontrivial());
    ASSERT_FALSE(capped_inner.pin_symmetries().nontrivial());
    // (inlets, outlets) shapes, sized so the unreduced search stays fast.
    const std::pair<int, int> full_shapes[] = {
        {2, 3}, {3, 4}, {2, 4}, k == 3 ? std::pair{3, 5} : std::pair{2, 3}};
    const std::pair<int, int> inner_shapes[] = {
        {1, 3}, {2, 3}, {3, 4}, k == 3 ? std::pair{4, 5} : std::pair{1, 2}};
    const struct {
      const char* name;
      const arch::PathSet& paths;
      const std::pair<int, int>* shapes;
      bool one_set;
    } families[] = {{"rotations", rotations, full_shapes, false},
                    {"capped", capped, full_shapes, false},
                    {"rotations innermost", rotations_inner, inner_shapes, true},
                    {"capped innermost", capped_inner, inner_shapes, true}};
    for (const auto& family : families) {
      for (int v = 0; v < 8; ++v) {
        cases::ArtificialParams params;
        params.pins_per_side = k;
        params.policy = BindingPolicy::kUnfixed;
        params.num_inlets = family.shapes[v % 4].first;
        params.num_outlets = family.shapes[v % 4].second;
        params.num_conflict_pairs = 1 + (v + v / 4) % 4;
        params.seed = 7300ull + 97ull * static_cast<std::uint64_t>(v) +
                      static_cast<std::uint64_t>(k);
        ProblemSpec spec = cases::make_artificial(params);
        if (family.one_set) spec.max_sets = 1;
        fn(topo, family.paths, spec, cat(family.name, " ", spec.name));
      }
    }
  }
}

TEST(UnfixedParityTest, TwelveAndSixteenPinsMatchTheUnreducedSearch) {
  // Ground truth for the unfixed rules on the larger crossbars: the module
  // precedence chains together with the first binding over the verified
  // rotation orbits (every shortest path kept) and over the quarter-turn
  // fallback (the default cap). The default search and the unreduced one
  // must agree on the verdict and, when feasible, the proven optimum.
  int feasible = 0;
  int infeasible = 0;
  for_each_wide_unfixed_instance([&](const arch::SwitchTopology& topo,
                                     const arch::PathSet& paths,
                                     const ProblemSpec& spec,
                                     const std::string& what) {
    const auto reduced = solve_cp(topo, paths, spec, default_params());
    const auto full = solve_cp(topo, paths, spec, unreduced_params());
    ASSERT_EQ(reduced.ok(), full.ok())
        << what << ": default="
        << (reduced.ok() ? "ok" : reduced.status().to_string())
        << " unreduced=" << (full.ok() ? "ok" : full.status().to_string());
    if (!reduced.ok()) {
      EXPECT_EQ(reduced.status().code(), StatusCode::kInfeasible) << what;
      EXPECT_EQ(full.status().code(), StatusCode::kInfeasible) << what;
      ++infeasible;
      return;
    }
    EXPECT_NEAR(reduced->objective, full->objective, 1e-6) << what;
    EXPECT_TRUE(reduced->stats.proven_optimal) << what;
    EXPECT_TRUE(full->stats.proven_optimal) << what;
    ++feasible;
  });
  EXPECT_EQ(feasible, 52);
  EXPECT_EQ(infeasible, 12);
}

TEST(LearningParityTest, CrossCheckedAgainstIqp) {
  // Independent model cross-check on the fixed-policy subset. Only a
  // *proven* IQP result is a verdict: a deadline-limited IQP run returns
  // its best incumbent, which is routinely worse than the CP optimum, so
  // comparing against it would flag the CP engine for being right. The IQP
  // proves each fixed-policy instance in under a second, but reaches the
  // deadline without a verdict on every clockwise and unfixed one (it
  // cannot prove the small unfixed models even at 150 s), so those are
  // skipped before solving.
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

// --- Exhaustive oracle --------------------------------------------------------
//
// A solver written from the problem's constraints alone, sharing no code
// with the CP search (synth/cp_search.cpp): no bound, no symmetry rule, no
// early exit. It tries every binding the policy allows, every candidate
// path for each flow and every flow set for each flow, checks the
// synthesis constraints as written out below, and keeps the cheapest
// assignment that passes.

constexpr double kNoDesign = std::numeric_limits<double>::infinity();

/// True when the binding (module -> clockwise pin index) is one the
/// policy allows: the prescribed pins (fixed), the user's order read
/// clockwise from the first module's pin (clockwise), or any (unfixed).
bool policy_allows(const ProblemSpec& spec, int num_pins,
                   const std::vector<int>& pin_of) {
  switch (spec.policy) {
    case BindingPolicy::kFixed:
      return std::all_of(spec.fixed_binding.begin(), spec.fixed_binding.end(),
                         [&](const ModulePin& mp) {
                           return pin_of[static_cast<std::size_t>(mp.module)] ==
                                  mp.pin_index;
                         });
    case BindingPolicy::kClockwise: {
      const int start =
          pin_of[static_cast<std::size_t>(spec.clockwise_order.front())];
      int previous = 0;
      for (std::size_t i = 1; i < spec.clockwise_order.size(); ++i) {
        const int pin =
            pin_of[static_cast<std::size_t>(spec.clockwise_order[i])];
        const int offset = (pin - start + num_pins) % num_pins;
        if (offset <= previous) return false;
        previous = offset;
      }
      return true;
    }
    case BindingPolicy::kUnfixed:
      return true;
  }
  return false;
}

/// The reagents of two flows conflict when their inlets differ and some
/// listed conflict pair joins a flow of the one inlet to a flow of the
/// other (reagent identity lives at the inlet).
bool reagents_conflict(const ProblemSpec& spec, int flow_a, int flow_b) {
  const int a = spec.flows[static_cast<std::size_t>(flow_a)].src_module;
  const int b = spec.flows[static_cast<std::size_t>(flow_b)].src_module;
  if (a == b) return false;
  for (const auto& [f, g] : spec.conflicts) {
    const int x = spec.flows[static_cast<std::size_t>(f)].src_module;
    const int y = spec.flows[static_cast<std::size_t>(g)].src_module;
    if ((x == a && y == b) || (x == b && y == a)) return true;
  }
  return false;
}

/// The optimum over every (binding, path per flow, set per flow) that
/// satisfies the constraints, or kNoDesign when none does.
double exhaustive_optimum(const arch::SwitchTopology& topo,
                          const arch::PathSet& paths, const ProblemSpec& spec) {
  const int num_pins = topo.num_pins();
  const int num_modules = spec.num_modules();
  const auto num_flows = static_cast<std::size_t>(spec.num_flows());
  const int num_sets = spec.effective_max_sets();

  // shares[p * size + q]: paths p and q visit a common vertex.
  const auto size = static_cast<std::size_t>(paths.size());
  std::vector<char> shares(size * size, 0);
  for (std::size_t p = 0; p < size; ++p) {
    const std::vector<int>& a = paths.path(static_cast<int>(p)).vertex_set;
    for (std::size_t q = 0; q < size; ++q) {
      const std::vector<int>& b = paths.path(static_cast<int>(q)).vertex_set;
      std::vector<int> common;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(common));
      shares[p * size + q] = common.empty() ? 0 : 1;
    }
  }
  std::vector<char> conflict(num_flows * num_flows, 0);
  for (std::size_t f = 0; f < num_flows; ++f) {
    for (std::size_t g = 0; g < num_flows; ++g) {
      conflict[f * num_flows + g] =
          reagents_conflict(spec, static_cast<int>(f), static_cast<int>(g)) ? 1 : 0;
    }
  }

  double best = kNoDesign;
  std::vector<int> path_of(num_flows);
  std::vector<int> set_of(num_flows);
  std::vector<char> segment_used(static_cast<std::size_t>(topo.num_segments()));
  const auto evaluate = [&] {
    for (std::size_t f = 0; f < num_flows; ++f) {
      for (std::size_t g = f + 1; g < num_flows; ++g) {
        const int p = path_of[f];
        const int q = path_of[g];
        // Each candidate path carries at most one flow.
        if (p == q) return;
        if (shares[static_cast<std::size_t>(p) * size +
                   static_cast<std::size_t>(q)] == 0) {
          continue;
        }
        // Conflicting reagents never meet at a vertex, in any set.
        if (conflict[f * num_flows + g] != 0) return;
        // Within a set every vertex is wetted by one inlet at most.
        if (set_of[f] == set_of[g] &&
            spec.flows[f].src_module != spec.flows[g].src_module) {
          return;
        }
      }
    }
    std::vector<int> used_sets(set_of);
    std::sort(used_sets.begin(), used_sets.end());
    const auto sets = std::unique(used_sets.begin(), used_sets.end()) -
                      used_sets.begin();
    std::fill(segment_used.begin(), segment_used.end(), 0);
    double length_um = 0.0;
    for (const int p : path_of) {
      for (const int s : paths.path(p).segments) {
        if (segment_used[static_cast<std::size_t>(s)] != 0) continue;
        segment_used[static_cast<std::size_t>(s)] = 1;
        length_um += topo.segment(s).length_um;
      }
    }
    best = std::min(best, spec.alpha * static_cast<double>(sets) +
                              spec.beta * length_um / 1000.0);
  };

  // Every injective module -> pin map; the policy filters them.
  std::vector<int> pin_of(static_cast<std::size_t>(num_modules), -1);
  std::vector<char> pin_taken(static_cast<std::size_t>(num_pins), 0);
  const auto bind = [&](const auto& self, int module) -> void {
    if (module < num_modules) {
      for (int pin = 0; pin < num_pins; ++pin) {
        if (pin_taken[static_cast<std::size_t>(pin)] != 0) continue;
        pin_taken[static_cast<std::size_t>(pin)] = 1;
        pin_of[static_cast<std::size_t>(module)] = pin;
        self(self, module + 1);
        pin_taken[static_cast<std::size_t>(pin)] = 0;
      }
      return;
    }
    if (!policy_allows(spec, num_pins, pin_of)) return;
    std::vector<const std::vector<int>*> candidates(num_flows);
    for (std::size_t f = 0; f < num_flows; ++f) {
      const int src = pin_of[static_cast<std::size_t>(spec.flows[f].src_module)];
      const int dst = pin_of[static_cast<std::size_t>(spec.flows[f].dst_module)];
      candidates[f] = &paths.between(
          topo.pins_clockwise()[static_cast<std::size_t>(src)],
          topo.pins_clockwise()[static_cast<std::size_t>(dst)]);
    }
    // Odometers over the path of each flow, then the set of each flow.
    std::vector<std::size_t> pick(num_flows, 0);
    for (;;) {
      bool routable = true;
      for (std::size_t f = 0; f < num_flows; ++f) {
        routable = routable && pick[f] < candidates[f]->size();
        if (routable) path_of[f] = (*candidates[f])[pick[f]];
      }
      if (routable) {
        std::fill(set_of.begin(), set_of.end(), 0);
        for (;;) {
          evaluate();
          std::size_t f = 0;
          while (f < num_flows && ++set_of[f] == num_sets) set_of[f++] = 0;
          if (f == num_flows) break;
        }
      }
      std::size_t f = 0;
      while (f < num_flows && ++pick[f] >= candidates[f]->size()) pick[f++] = 0;
      if (f == num_flows) break;
    }
  };
  bind(bind, 0);
  return best;
}

TEST(ExhaustiveOracleTest, CpAgreesOnSmallInstancesOfEveryPolicy) {
  // 8 pins, at most 3 flows and 2 to 4 candidate paths per pin pair keep
  // the 300 enumerations to about a second in the default build.
  // On the full path sets every unfixed instance here is feasible (each
  // inlet's modules can sit on adjacent pins); restricted to the paths
  // through the centre (innermost_paths), any two conflicting inlets, or
  // two inlets sharing one flow set, cannot both route, so those unfixed
  // instances are not.
  const arch::SwitchTopology topo = arch::make_crossbar(2);
  std::vector<arch::PathSet> full;
  std::vector<arch::PathSet> centre;
  for (const int cap : {2, 3, 4}) {
    arch::PathEnumOptions options;
    options.max_paths_per_pair = cap;
    full.push_back(arch::enumerate_paths(topo, options));
    centre.push_back(innermost_paths(topo, full.back()));
  }
  EngineParams params;
  params.deadline = support::Deadline::after(60.0);

  int feasible[3] = {0, 0, 0};
  int infeasible[3] = {0, 0, 0};
  for (int v = 0; v < 300; ++v) {
    cases::ArtificialParams shape;
    shape.pins_per_side = 2;
    shape.policy = static_cast<BindingPolicy>(v % 3);
    shape.num_outlets = 1 + (v / 3) % 3;
    shape.num_inlets = 1 + (v / 9) % shape.num_outlets;
    shape.num_conflict_pairs = (v / 2) % 3;
    shape.seed = 4400ull + static_cast<std::uint64_t>(v) * 13;
    ProblemSpec spec = cases::make_artificial(shape);
    if (v % 4 == 1) spec.max_sets = 1;
    const std::size_t cap = static_cast<std::size_t>(v / 5) % 3;
    const arch::PathSet& paths = v % 5 < 2 ? centre[cap] : full[cap];
    const std::string what =
        cat(spec.name, v % 5 < 2 ? " centre" : "", " cap ", cap + 2,
            " max_sets ", spec.max_sets);

    const double expected = exhaustive_optimum(topo, paths, spec);
    const auto got = solve_cp(topo, paths, spec, params);
    const auto policy = static_cast<std::size_t>(spec.policy);
    if (expected == kNoDesign) {
      ASSERT_FALSE(got.ok()) << what << ": cp found " << got->objective;
      EXPECT_EQ(got.status().code(), StatusCode::kInfeasible) << what;
      ++infeasible[policy];
      continue;
    }
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().to_string()
                          << ", oracle " << expected;
    EXPECT_TRUE(got->stats.proven_optimal) << what;
    EXPECT_NEAR(got->objective, expected, 1e-6) << what;
    ++feasible[policy];
  }
  // The sweep must exercise both verdicts under every policy to mean
  // anything (at this seed: 66/34 fixed, 84/16 clockwise, 85/15 unfixed).
  for (int policy = 0; policy < 3; ++policy) {
    EXPECT_GE(feasible[policy], 50) << "policy " << policy;
    EXPECT_GE(infeasible[policy], 10) << "policy " << policy;
  }
}

/// A spine switch with \p junctions junctions at uneven pitches and \p pins
/// pins on stubs of uneven length, the first pins one per junction and the
/// rest on random junctions: an asymmetric switch (only the identity
/// verifies) whose junctions carry several pins, so which flows meet
/// depends on where each module sits. Clockwise order runs junction by
/// junction. Every length is a whole number of micrometres. It is built as
/// a spine, so the search's first binding ranges over every pin (the
/// quarter-turn fallback is for crossbars, whose rotations it assumes).
arch::SwitchTopology uneven_spine(std::uint64_t seed, int junctions, int pins) {
  Rng rng(seed);
  std::vector<arch::Vertex> vertices;
  std::vector<arch::Segment> segments;
  const auto add_vertex = [&](arch::VertexKind kind, std::string name) {
    arch::Vertex v;
    v.id = static_cast<int>(vertices.size());
    v.kind = kind;
    v.name = std::move(name);
    v.pos = {100.0 * v.id, 0.0};
    vertices.push_back(std::move(v));
    return vertices.back().id;
  };
  const auto add_segment = [&](int a, int b, double length_um) {
    arch::Segment s;
    s.id = static_cast<int>(segments.size());
    s.a = a;
    s.b = b;
    s.length_um = length_um;
    s.name = cat(vertices[static_cast<std::size_t>(a)].name, "-",
                 vertices[static_cast<std::size_t>(b)].name);
    segments.push_back(std::move(s));
  };
  for (int j = 0; j < junctions; ++j) {
    add_vertex(arch::VertexKind::kNode, cat("J", j));
  }
  for (int j = 0; j + 1 < junctions; ++j) {
    add_segment(j, j + 1, 100.0 * rng.next_int(4, 16));
  }
  std::vector<std::vector<int>> pins_at(static_cast<std::size_t>(junctions));
  for (int p = 0; p < pins; ++p) {
    const int at = p < junctions ? p : rng.next_int(0, junctions - 1);
    const int pin = add_vertex(arch::VertexKind::kPin, cat("P", p));
    add_segment(at, pin, 100.0 * rng.next_int(3, 8));
    pins_at[static_cast<std::size_t>(at)].push_back(pin);
  }
  std::vector<int> clockwise;
  for (const std::vector<int>& at : pins_at) {
    clockwise.insert(clockwise.end(), at.begin(), at.end());
  }
  return arch::SwitchTopology(arch::TopologyKind::kSpine,
                              cat("uneven spine ", seed), std::move(vertices),
                              std::move(segments), std::move(clockwise));
}

TEST(ExhaustiveOracleTest, BindingOrderMattersOnUnevenSpines) {
  // Three single-flow inlets with mixed conflicts (one or two pairs, so
  // some but not all inlet swaps keep the conflict relation) on 6-pin
  // uneven spines. Pins sharing a junction force flows to meet, and the
  // uneven lengths make each placement cost differently, so a precedence
  // class that chained a non-interchangeable inlet would cut off the
  // optimum: merging every pair of single-flow inlets into one class
  // fails 34 of these 120 instances (30 by a false infeasible verdict, 4
  // by a worse objective; EXPERIMENTS.md), where the older oracle and
  // parity suites see only a node total move.
  EngineParams params;
  params.deadline = support::Deadline::after(60.0);
  int feasible = 0;
  int infeasible = 0;
  for (int v = 0; v < 120; ++v) {
    const arch::SwitchTopology topo =
        uneven_spine(100 + static_cast<std::uint64_t>(v), 2 + v % 3, 6);
    const arch::PathSet paths = arch::enumerate_paths(topo);
    ASSERT_FALSE(paths.pin_symmetries().nontrivial()) << topo.name();
    cases::ArtificialParams shape;
    shape.policy = BindingPolicy::kUnfixed;
    shape.num_inlets = 3;
    shape.num_outlets = 3;
    shape.num_conflict_pairs = 1 + (v / 3) % 2;
    shape.seed = 5100 + static_cast<std::uint64_t>(v) * 7;
    const ProblemSpec spec = cases::make_artificial(shape);
    const std::string what = cat(topo.name(), " ", spec.name);

    const double expected = exhaustive_optimum(topo, paths, spec);
    const auto got = solve_cp(topo, paths, spec, params);
    if (expected == kNoDesign) {
      ASSERT_FALSE(got.ok()) << what << ": cp found " << got->objective;
      EXPECT_EQ(got.status().code(), StatusCode::kInfeasible) << what;
      ++infeasible;
      continue;
    }
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().to_string()
                          << ", oracle " << expected;
    EXPECT_TRUE(got->stats.proven_optimal) << what;
    EXPECT_NEAR(got->objective, expected, 1e-6) << what;
    ++feasible;
  }
  // Both verdicts must occur to mean anything (at this seed: 102/18).
  EXPECT_GE(feasible, 90);
  EXPECT_GE(infeasible, 10);
}

TEST(WideMaskTest, GruChainPastSixtyFourVerticesSolvesAsBefore) {
  // An 8-unit GRU chain has 69 vertices, so each path's vertex mask takes
  // two words and the contamination check ANDs both. With 800 um of path
  // slack every pin pair has up to 16 candidates. The objective and node
  // count are pinned, so a mask that misplaced a vertex would show as a
  // different search (arch_paths_test checks every bit of these masks).
  const arch::SwitchTopology topo = arch::make_gru(8);
  arch::PathEnumOptions slack;
  slack.slack_um = 800.0;
  const arch::PathSet paths = arch::enumerate_paths(topo, slack);
  ASSERT_EQ(topo.num_vertices(), 69);
  EXPECT_EQ(paths.mask_words(), 2);

  ProblemSpec spec;
  spec.name = "gru chain";
  spec.modules = {"I1", "I2", "I3", "O1", "O2", "O3", "O4", "O5", "O6"};
  spec.flows = {{0, 3}, {0, 4}, {1, 5}, {1, 6}, {2, 7}, {2, 8}};
  spec.conflicts = {{0, 2}, {3, 4}};
  spec.policy = BindingPolicy::kFixed;
  const int pins[] = {35, 12, 17, 1, 33, 8, 25, 15, 19};
  for (int m = 0; m < 9; ++m) spec.fixed_binding.push_back({m, pins[m]});

  const auto result = solve_cp(topo, paths, spec, default_params());
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->stats.proven_optimal);
  EXPECT_NEAR(result->objective, 1312.9595949289333, 1e-9);
  EXPECT_EQ(result->num_sets, 1);
  EXPECT_EQ(result->stats.nodes, 2'740);
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

// --- Clockwise first-pin split ---------------------------------------------

EngineParams params_with_jobs(int jobs) {
  EngineParams p;
  p.deadline = support::Deadline::after(300.0);
  p.jobs = jobs;
  return p;
}

/// The split must return exactly the serial design: the same verdict,
/// binding, set and path id per flow, objective and proven flag.
void expect_same_answer(const Result<SynthesisResult>& serial,
                        const Result<SynthesisResult>& split,
                        const std::string& what) {
  ASSERT_EQ(serial.ok(), split.ok())
      << what << ": serial=" << serial.status().to_string()
      << " split=" << split.status().to_string();
  if (!serial.ok()) {
    EXPECT_EQ(serial.status().code(), split.status().code()) << what;
    return;
  }
  EXPECT_EQ(serial->binding, split->binding) << what;
  ASSERT_EQ(serial->routed.size(), split->routed.size()) << what;
  for (std::size_t i = 0; i < serial->routed.size(); ++i) {
    EXPECT_EQ(serial->routed[i].set, split->routed[i].set)
        << what << " flow " << i;
    EXPECT_EQ(serial->routed[i].path.id, split->routed[i].path.id)
        << what << " flow " << i;
  }
  EXPECT_EQ(serial->objective, split->objective) << what;
  EXPECT_EQ(serial->stats.proven_optimal, split->stats.proven_optimal) << what;
}

struct SplitCase {
  const char* name;
  ProblemSpec (*make)(BindingPolicy);  ///< called with the suite's policy
  /// Nodes the serial search explores; the split explores exactly as many
  /// because unit 0 holds the optimum at the handoff. 0: not pinned.
  long nodes;
};

// Without this gtest lists the case as its raw bytes, pointers included,
// so the test names ctest discovers would change from build to build.
void PrintTo(const SplitCase& c, std::ostream* os) { *os << c.name; }

std::string split_case_name(const ::testing::TestParamInfo<SplitCase>& info) {
  return info.param.name;
}

/// Solves \p param under \p policy at jobs 1, 2 and 4: the same answer
/// each time, and the pinned node count at jobs 1 and 4.
void expect_split_parity(const SplitCase& param, BindingPolicy policy) {
  const ProblemSpec spec = param.make(policy);
  ASSERT_EQ(spec.policy, policy);
  const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
  const arch::PathSet paths = arch::enumerate_paths(topo);
  const auto serial = solve_cp(topo, paths, spec, params_with_jobs(1));
  const auto two = solve_cp(topo, paths, spec, params_with_jobs(2));
  const auto four = solve_cp(topo, paths, spec, params_with_jobs(4));
  expect_same_answer(serial, two, "jobs 2");
  expect_same_answer(serial, four, "jobs 4");
  if (!serial.ok()) return;
  EXPECT_TRUE(serial->stats.proven_optimal);
  EXPECT_EQ(two->stats.nodes, four->stats.nodes);
  if (param.nodes > 0) {
    EXPECT_EQ(serial->stats.nodes, param.nodes);
    EXPECT_EQ(four->stats.nodes, param.nodes);
  }
}

class ClockwiseSplitParityTest : public ::testing::TestWithParam<SplitCase> {};

TEST_P(ClockwiseSplitParityTest, SameAnswerAtEveryJobCount) {
  expect_split_parity(GetParam(), BindingPolicy::kClockwise);
}

INSTANTIATE_TEST_SUITE_P(
    PaperCases, ClockwiseSplitParityTest,
    ::testing::Values(
        SplitCase{"chip1_cw", cases::chip_sw1, 76'855},
        SplitCase{"chip2_cw", cases::chip_sw2, 411'497},
        SplitCase{"kin1_cw", cases::kinase_sw1, 0},
        SplitCase{"kin2_cw", cases::kinase_sw2, 0},
        SplitCase{"na_cw", cases::nucleic_acid, 0},
        SplitCase{"mrna_cw", cases::mrna_isolation, 0},
        SplitCase{"mrna13_cw", cases::mrna_13, 767'273},
        SplitCase{"table42",
                  [](BindingPolicy) { return cases::table42_example(); },
                  246'496}),
    split_case_name);

TEST(ClockwiseSplitTest, FuzzInstancesSameAnswerAtEveryJobCount) {
  int compared = 0;
  for (int v = 0; v < 200; ++v) {
    const cases::ArtificialParams params = fuzz_case(v);
    if (params.policy != BindingPolicy::kClockwise) continue;
    const ProblemSpec spec = cases::make_artificial(params);
    const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
    const arch::PathSet paths = arch::enumerate_paths(topo);
    const auto serial = solve_cp(topo, paths, spec, params_with_jobs(1));
    const auto two = solve_cp(topo, paths, spec, params_with_jobs(2));
    const auto four = solve_cp(topo, paths, spec, params_with_jobs(4));
    expect_same_answer(serial, two, spec.name + " jobs 2");
    expect_same_answer(serial, four, spec.name + " jobs 4");
    if (serial.ok()) {
      EXPECT_EQ(two->stats.nodes, four->stats.nodes) << spec.name;
    }
    ++compared;
  }
  EXPECT_EQ(compared, 67);  // v = 1, 4, ..., 199
}

int count_subtree_spans(const std::string& trace) {
  const auto doc = json::parse(trace);
  if (!doc.ok() || !doc->is_array()) return -1;
  int spans = 0;
  for (const json::Value& ev : doc->as_array()) {
    if (ev.get_string("name", "").rfind("cp.subtree:", 0) == 0) ++spans;
  }
  return spans;
}

/// The cp.subtree spans a solve of \p spec on \p paths at jobs 4 opens,
/// and its result.
std::pair<int, Result<SynthesisResult>> subtree_spans(
    const arch::SwitchTopology& topo, const arch::PathSet& paths,
    const ProblemSpec& spec) {
  auto& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.enable();
  auto result = solve_cp(topo, paths, spec, params_with_jobs(4));
  tracer.disable();
  const int spans = count_subtree_spans(tracer.to_json());
  tracer.reset();
  return {spans, std::move(result)};
}

TEST(ClockwiseSplitTest, OnlyALargeFirstSubtreeStartsThePool) {
  // ChIP sw.2 explores 29,911 nodes under its first pin, so jobs 4 hands
  // off the other 11 first pins, one cp.subtree span each; kinase SW2 stays
  // below the threshold and runs serially.
  const auto spans_of = [](const ProblemSpec& spec) {
    const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
    const arch::PathSet paths = arch::enumerate_paths(topo);
    auto [spans, result] = subtree_spans(topo, paths, spec);
    EXPECT_TRUE(result.ok()) << result.status().to_string();
    return spans;
  };
  const ProblemSpec large = cases::chip_sw2(BindingPolicy::kClockwise);
  EXPECT_EQ(spans_of(large), 4 * large.pins_per_side - 1);
  EXPECT_EQ(spans_of(cases::kinase_sw2(BindingPolicy::kClockwise)), 0);
}

/// The args of the one cp.done instant in \p trace, or null.
json::Value done_args(const std::string& trace) {
  const auto doc = json::parse(trace);
  if (!doc.ok() || !doc->is_array()) return json::Value{};
  for (const json::Value& ev : doc->as_array()) {
    if (ev.get_string("name", "") != "cp.done") continue;
    const json::Value* args = ev.find("args");
    return args != nullptr ? *args : json::Value{};
  }
  return json::Value{};
}

TEST(ClockwiseSplitTest, SearchEventsAreTraceInstants) {
  // The CP search reports each improving incumbent and its end as trace
  // instants with their fields under "args"; with the split, incumbents
  // come from worker threads too. cp.done also says why nodes were pruned,
  // summed over the split's subtrees: the same tallies as the serial
  // search, which explores the same 411,497 nodes. A clockwise search
  // binds every module before its dive, so the module precedence chains
  // never skip a binding there.
  const ProblemSpec spec = cases::chip_sw2(BindingPolicy::kClockwise);
  const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
  const arch::PathSet paths = arch::enumerate_paths(topo);
  auto& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.enable();
  const auto serial = solve_cp(topo, paths, spec, params_with_jobs(1));
  tracer.disable();
  ASSERT_TRUE(serial.ok()) << serial.status().to_string();
  const json::Value serial_done = done_args(tracer.to_json());
  tracer.reset();
  tracer.enable();
  const auto result = solve_cp(topo, paths, spec, params_with_jobs(4));
  tracer.disable();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto doc = json::parse(tracer.to_json());
  tracer.reset();
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(serial->stats.nodes, 411'497);
  EXPECT_EQ(result->stats.nodes, 411'497);

  int incumbents = 0;
  int done = 0;
  double best_obj = std::numeric_limits<double>::infinity();
  for (const json::Value& ev : doc->as_array()) {
    const std::string name = ev.get_string("name", "");
    const json::Value* args = ev.find("args");
    if (name == "cp.incumbent") {
      ++incumbents;
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->get_string("engine", ""), "cp");
      EXPECT_NE(args->find("sets"), nullptr);
      EXPECT_NE(args->find("nodes"), nullptr);
      best_obj = std::min(best_obj, args->get_number("obj", 0.0));
    } else if (name == "cp.done") {
      ++done;
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->get_bool("proven", false), result->stats.proven_optimal);
      EXPECT_EQ(args->get_number("nodes", -1), result->stats.nodes);
      EXPECT_NEAR(args->get_number("obj", 0.0), result->objective, 1e-9);
      for (const char* tally :
           {"bound", "breaks", "owner", "conflict", "symmetry"}) {
        ASSERT_NE(args->find(tally), nullptr) << tally;
        EXPECT_EQ(args->get_number(tally, -1),
                  serial_done.get_number(tally, -2))
            << tally;
      }
      EXPECT_GT(args->get_number("breaks", 0), 0);
      EXPECT_EQ(args->get_number("symmetry", -1), 0);
    }
  }
  EXPECT_GE(incumbents, 1);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(serial_done.get_number("symmetry", -1), 0);
  // The answer is the best incumbent any subtree recorded.
  EXPECT_NEAR(best_obj, result->objective, 1e-9);
}

TEST(SymmetryTest, FirstModuleLeavesItsChainWhenRepresentativesAreNoPrefix) {
  // Every built-in switch numbers its pins so that the orbit
  // representatives are a prefix of the pin order. Swapping the 8-pin
  // crossbar's pins 1 and 2 makes them pins 0 and 2, so the first-bound
  // module, when it is a single-flow inlet with interchangeable partners,
  // is left out of its chain; the search must still prove the optimum of
  // the full binding space.
  const arch::SwitchTopology base = arch::make_crossbar(2);
  std::vector<int> pins = base.pins_clockwise();
  std::swap(pins[1], pins[2]);
  const arch::SwitchTopology topo(base.kind(), base.name(), base.vertices(),
                                  base.segments(), pins);
  const arch::PathSet paths = arch::enumerate_paths(topo);
  ASSERT_EQ(paths.pin_symmetries().group_size(), 4);
  std::vector<int> representatives;
  for (int p = 0; p < topo.num_pins(); ++p) {
    if (paths.pin_symmetries().orbit_min(p) == p) representatives.push_back(p);
  }
  EXPECT_EQ(representatives, (std::vector<int>{0, 2}));
  for (int v = 0; v < 40; ++v) {
    cases::ArtificialParams params;
    params.pins_per_side = 2;
    params.policy = BindingPolicy::kUnfixed;
    params.num_inlets = 2 + v % 2;
    params.num_outlets = params.num_inlets + (v / 2) % 2;
    params.num_conflict_pairs = (v / 4) % 4;
    params.seed = 100 + static_cast<std::uint64_t>(v);
    const ProblemSpec spec = cases::make_artificial(params);
    const auto reduced = solve_cp(topo, paths, spec, default_params());
    const auto full = solve_cp(topo, paths, spec, unreduced_params());
    ASSERT_EQ(reduced.ok(), full.ok()) << spec.name;
    if (!reduced.ok()) continue;
    EXPECT_NEAR(reduced->objective, full->objective, 1e-6) << spec.name;
    EXPECT_TRUE(reduced->stats.proven_optimal) << spec.name;
  }
}

TEST(SymmetryTest, PrecedenceSkipsAreTallied) {
  // ChIP sw.1 unfixed has two classes of interchangeable modules (i11's
  // three mixers, buf's two wash outlets); the bindings their precedence
  // chains skip are counted in the cp.done instant's symmetry tally.
  const ProblemSpec spec = cases::chip_sw1(BindingPolicy::kUnfixed);
  const arch::SwitchModel& model = arch::switch_model(spec.pins_per_side);
  auto& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.enable();
  const auto result =
      solve_cp(model.topology, model.paths, spec, default_params());
  tracer.disable();
  const json::Value done = done_args(tracer.to_json());
  tracer.reset();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->stats.proven_optimal);
  EXPECT_GT(done.get_number("symmetry", 0), 0);
}

TEST(ClockwiseSplitTest, RecorderOnlySubtreeSpansKeepTheirName) {
  // mlsi_serve runs with the flight recorder on and the tracer off. Each
  // worker subtree must still be recorded under its static span name:
  // ChIP sw.2 at jobs 4 splits 11 first pins, so 11 'B' and 11 'E'
  // records named cp.subtree, and no record without a name.
  const ProblemSpec spec = cases::chip_sw2(BindingPolicy::kClockwise);
  const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
  const arch::PathSet paths = arch::enumerate_paths(topo);
  auto& recorder = obs::FlightRecorder::instance();
  recorder.reset();
  recorder.enable();
  const auto result = solve_cp(topo, paths, spec, params_with_jobs(4));
  recorder.disable();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const std::string path = ::testing::TempDir() + "cp_split_recorder.jsonl";
  ASSERT_TRUE(recorder.dump(path).ok());
  recorder.reset();

  std::ifstream in(path);
  int begins = 0;
  int ends = 0;
  int unnamed = 0;
  for (std::string line; std::getline(in, line);) {
    const auto rec = json::parse(line);
    ASSERT_TRUE(rec.ok()) << line;
    const std::string name = rec->get_string("name", "");
    if (name.empty()) ++unnamed;
    if (name != "cp.subtree") continue;
    const std::string ph = rec->get_string("ph", "");
    begins += ph == "B" ? 1 : 0;
    ends += ph == "E" ? 1 : 0;
  }
  EXPECT_EQ(begins, 4 * spec.pins_per_side - 1);
  EXPECT_EQ(ends, 4 * spec.pins_per_side - 1);
  EXPECT_EQ(unnamed, 0);
}

TEST(ClockwiseSplitTest, CallerStopReachesTheWorkers) {
  // The workers poll the caller's token directly: tripping it mid-split
  // unwinds promptly and never reports a proof the search did not finish.
  // This 16-pin clockwise spec has no contamination-free design; its first
  // pin's subtree takes about 0.6 s and the other 15 about 4 s on four
  // workers (Release), so the stop, sent as soon as the flight recorder
  // holds a worker's cp.subtree span, lands while the workers search.
  cases::ArtificialParams params;
  params.pins_per_side = 4;
  params.num_inlets = 2;
  params.num_outlets = 6;
  params.num_conflict_pairs = 1;
  params.policy = BindingPolicy::kClockwise;
  params.seed = 1234;
  const ProblemSpec spec = cases::make_artificial(params);
  const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
  const arch::PathSet paths = arch::enumerate_paths(topo);

  auto& recorder = obs::FlightRecorder::instance();
  recorder.reset();
  recorder.enable();
  support::StopSource source;
  EngineParams p = params_with_jobs(4);
  p.stop = source.token();
  Result<SynthesisResult> stopped{Status::Internal("not run")};
  std::thread worker([&] { stopped = solve_cp(topo, paths, spec, p); });
  // The cp.solve span's begin record, then the first worker's cp.subtree.
  while (recorder.record_count() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Timer timer;
  source.request_stop();
  worker.join();
  recorder.disable();
  recorder.reset();
  EXPECT_LT(timer.seconds(), 5.0);
  ASSERT_FALSE(stopped.ok()) << "the split finished before the stop";
  EXPECT_EQ(stopped.status().code(), StatusCode::kTimeout)
      << stopped.status().to_string();
}

// --- Unfixed root-unit split -----------------------------------------------
//
// Under the unfixed policy a root unit is one (source, destination) pin pair
// of the first flow: the first-binding pins times the other pins, 33 units
// on 12 pins. The calling thread counts the shared root node once, searches
// unit 0, and hands units 1.. off once unit 0 is large (the handoff section
// below).

class UnfixedSplitParityTest : public ::testing::TestWithParam<SplitCase> {};

TEST_P(UnfixedSplitParityTest, SameAnswerAtEveryJobCount) {
  expect_split_parity(GetParam(), BindingPolicy::kUnfixed);
}

INSTANTIATE_TEST_SUITE_P(
    PaperCases, UnfixedSplitParityTest,
    ::testing::Values(SplitCase{"chip1_un", cases::chip_sw1, 107'672},
                      SplitCase{"chip2_un", cases::chip_sw2, 1'070'202},
                      SplitCase{"na_un", cases::nucleic_acid, 810},
                      SplitCase{"mrna_un", cases::mrna_isolation, 34'962},
                      SplitCase{"kin1_un", cases::kinase_sw1, 8},
                      SplitCase{"kin2_un", cases::kinase_sw2, 822}),
    split_case_name);

TEST(UnfixedSplitTest, FuzzInstancesSameAnswerAtEveryJobCount) {
  // The 200-instance parity fuzz's unfixed instances and the 12-/16-pin
  // unfixed fuzz, at jobs 1, 2 and 4. Five of them reach the threshold and
  // split at jobs 4 (the count is deterministic: it follows node counts).
  int compared = 0;
  int split = 0;
  const auto compare = [&](const arch::SwitchTopology& topo,
                           const arch::PathSet& paths, const ProblemSpec& spec,
                           const std::string& what) {
    const auto serial = solve_cp(topo, paths, spec, params_with_jobs(1));
    const auto two = solve_cp(topo, paths, spec, params_with_jobs(2));
    auto [spans, four] = subtree_spans(topo, paths, spec);
    expect_same_answer(serial, two, what + " jobs 2");
    expect_same_answer(serial, four, what + " jobs 4");
    if (serial.ok()) {
      EXPECT_EQ(two->stats.nodes, four->stats.nodes) << what;
    }
    ++compared;
    split += spans > 0 ? 1 : 0;
  };
  for (int v = 0; v < 200; ++v) {
    const cases::ArtificialParams params = fuzz_case(v);
    if (params.policy != BindingPolicy::kUnfixed) continue;
    const ProblemSpec spec = cases::make_artificial(params);
    const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
    const arch::PathSet paths = arch::enumerate_paths(topo);
    compare(topo, paths, spec, spec.name);
  }
  for_each_wide_unfixed_instance(compare);
  EXPECT_EQ(compared, 66 + 64);  // v = 2, 5, ..., 197; 2 x 4 x 8 wide
  EXPECT_EQ(split, 5);
}

TEST(UnfixedSplitTest, OnlyALargeUnitZeroStartsThePool) {
  // ChIP SW1 unfixed explores more than 4,096 nodes in its root and unit 0,
  // so jobs 4 hands off the other 32 of its 33 units (3 first-binding pins
  // x 11 destination pins), one cp.subtree span each. Kinase SW2
  // stays below the threshold. So does this 8-pin spec the size of the
  // perfbench serve_zipf pool's largest (its unfixed entry serve33): 8,116
  // nodes in all but 1,531 by the end of unit 0. A count of every node so
  // far would start a pool while serving.
  const auto model_spans = [](const ProblemSpec& spec) {
    const arch::SwitchModel& model = arch::switch_model(spec.pins_per_side);
    auto [spans, result] = subtree_spans(model.topology, model.paths, spec);
    EXPECT_TRUE(result.ok()) << spec.name << ": " << result.status().to_string();
    return std::pair{spans, result.ok() ? result->stats.nodes : -1};
  };
  EXPECT_EQ(model_spans(cases::chip_sw1(BindingPolicy::kUnfixed)).first, 32);
  EXPECT_EQ(model_spans(cases::kinase_sw2(BindingPolicy::kUnfixed)).first, 0);
  cases::ArtificialParams serve33;
  serve33.pins_per_side = 2;
  serve33.policy = BindingPolicy::kUnfixed;
  serve33.num_inlets = 3;
  serve33.num_outlets = 5;
  serve33.num_conflict_pairs = 0;
  serve33.seed = 90033;
  EXPECT_EQ(model_spans(cases::make_artificial(serve33)), std::pair(0, 8'116L));
}

TEST(UnfixedSplitTest, DoneCountsNodesPerPositionAndUnits) {
  // cp.done says where the proof went: nodes per flow-order position (the
  // last entry counts leaves), summed over the units, and how many root
  // units there were and were handed off. The root is counted once.
  const ProblemSpec spec = cases::chip_sw1(BindingPolicy::kUnfixed);
  const arch::SwitchModel& model = arch::switch_model(spec.pins_per_side);
  auto& tracer = obs::Tracer::instance();
  const auto done_at = [&](int jobs) {
    tracer.reset();
    tracer.enable();
    const auto result =
        solve_cp(model.topology, model.paths, spec, params_with_jobs(jobs));
    tracer.disable();
    EXPECT_TRUE(result.ok()) << result.status().to_string();
    json::Value done = done_args(tracer.to_json());
    tracer.reset();
    return done;
  };
  const json::Value serial = done_at(1);
  const json::Value split = done_at(4);
  const std::vector<long> expected = {1, 106, 4'984, 12'400, 15'300, 74'880, 1};
  for (const json::Value* done : {&serial, &split}) {
    const json::Value* by_pos = done->find("nodes_by_pos");
    ASSERT_NE(by_pos, nullptr);
    ASSERT_TRUE(by_pos->is_array());
    std::vector<long> counts;
    for (const json::Value& n : by_pos->as_array()) {
      counts.push_back(static_cast<long>(n.as_number()));
    }
    EXPECT_EQ(counts, expected);
    long sum = 0;
    for (const long n : counts) sum += n;
    EXPECT_EQ(sum, static_cast<long>(done->get_number("nodes", -1)));
    EXPECT_EQ(done->get_number("units", -1), 33);
  }
  EXPECT_EQ(serial.get_number("pool_units", -1), 0);
  EXPECT_EQ(split.get_number("pool_units", -1), 32);
}

TEST(UnfixedSplitTest, CallerStopReachesTheWorkers) {
  // This 16-pin unfixed spec, searched without the symmetry rules, has
  // 240 root units (16 source x 15 destination pins). Unit 0 takes about
  // 0.3 s (409,631 nodes) and the others far longer than the test waits on
  // four workers (Release), so the stop, sent as soon as the flight
  // recorder holds a worker's cp.subtree span, lands while the workers
  // search.
  cases::ArtificialParams params;
  params.pins_per_side = 4;
  params.num_inlets = 2;
  params.num_outlets = 7;
  params.num_conflict_pairs = 2;
  params.policy = BindingPolicy::kUnfixed;
  params.seed = 1002;
  const ProblemSpec spec = cases::make_artificial(params);
  const arch::SwitchModel& model = arch::switch_model(spec.pins_per_side);

  auto& recorder = obs::FlightRecorder::instance();
  recorder.reset();
  recorder.enable();
  support::StopSource source;
  EngineParams p = params_with_jobs(4);
  p.cp_symmetry = false;
  p.stop = source.token();
  Result<SynthesisResult> stopped{Status::Internal("not run")};
  std::thread worker(
      [&] { stopped = solve_cp(model.topology, model.paths, spec, p); });
  // The cp.solve span's begin record, then the first worker's cp.subtree.
  while (recorder.record_count() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Timer timer;
  source.request_stop();
  worker.join();
  recorder.disable();
  recorder.reset();
  EXPECT_LT(timer.seconds(), 5.0);
  if (stopped.ok()) {
    EXPECT_FALSE(stopped->stats.proven_optimal);
  } else {
    EXPECT_EQ(stopped.status().code(), StatusCode::kTimeout)
        << stopped.status().to_string();
  }
}

// --- The handoff -----------------------------------------------------------
//
// With jobs > 1 the calling thread hands root units 1.. off at the 4,096th
// node (the unfixed root included) if unit 0 holds an incumbent by then,
// else at the end of unit 0, and emits a cp.split instant there. It then
// finishes unit 0 and takes handed-off units from the pool's counter.

/// A solve of \p spec on its shared switch model at \p jobs, traced.
struct TracedSolve {
  Result<SynthesisResult> result;
  json::Value trace;  ///< the event array
};

TracedSolve traced_solve(const ProblemSpec& spec, int jobs) {
  const arch::SwitchModel& model = arch::switch_model(spec.pins_per_side);
  auto& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.enable();
  auto result =
      solve_cp(model.topology, model.paths, spec, params_with_jobs(jobs));
  tracer.disable();
  auto doc = json::parse(tracer.to_json());
  tracer.reset();
  return {std::move(result), doc.ok() ? std::move(*doc) : json::Value{}};
}

/// The events named \p name in \p trace.
std::vector<json::Value> events_named(const json::Value& trace,
                                      const std::string& name) {
  std::vector<json::Value> out;
  if (!trace.is_array()) return out;
  for (const json::Value& ev : trace.as_array()) {
    if (ev.get_string("name", "") == name) out.push_back(ev);
  }
  return out;
}

/// The args of the one cp.split instant of \p solve, or null.
json::Value split_args(const TracedSolve& solve) {
  const std::vector<json::Value> splits = events_named(solve.trace, "cp.split");
  EXPECT_EQ(splits.size(), 1u);
  if (splits.size() != 1) return json::Value{};
  const json::Value* args = splits[0].find("args");
  return args != nullptr ? *args : json::Value{};
}

TEST(SplitHandoffTest, HandsOffAtTheMarkWithUnitZerosIncumbent) {
  // Both cases record their optimum within their first ten nodes, so unit 0
  // holds it at the mark and hands off there, to one worker per job beyond
  // the caller's. A serial solve and kinase SW2 (1,401 nodes by the end of
  // unit 0) never hand off.
  const std::pair<ProblemSpec, double> at_mark[] = {
      {cases::chip_sw1(BindingPolicy::kUnfixed), 931.0},
      {cases::chip_sw2(BindingPolicy::kClockwise), 1141.0}};
  for (const auto& [spec, optimum] : at_mark) {
    for (const int jobs : {2, 4}) {
      const std::string what = cat(spec.name, " jobs ", jobs);
      const TracedSolve solve = traced_solve(spec, jobs);
      ASSERT_TRUE(solve.result.ok()) << what;
      EXPECT_NEAR(solve.result->objective, optimum, 1e-9) << what;
      const json::Value split = split_args(solve);
      EXPECT_EQ(split.get_number("nodes", -1), 4096) << what;
      EXPECT_NEAR(split.get_number("bound", -1), optimum, 1e-9) << what;
      EXPECT_EQ(split.get_number("workers", -1), jobs - 1) << what;
    }
    EXPECT_TRUE(events_named(traced_solve(spec, 1).trace, "cp.split").empty())
        << spec.name;
  }
  const TracedSolve small =
      traced_solve(cases::kinase_sw2(BindingPolicy::kClockwise), 4);
  ASSERT_TRUE(small.result.ok());
  EXPECT_TRUE(events_named(small.trace, "cp.split").empty());
}

TEST(SplitHandoffTest, WithoutAnIncumbentAtTheMarkHandsOffAtUnitZerosEnd) {
  // This 12-pin unfixed spec records its first incumbent at node 12,509,
  // past the mark, so unit 0 hands off at its end instead: node 58,588,
  // with the bound unit 0 ends on. That bound is already the optimum, so
  // the split explores the serial nodes.
  cases::ArtificialParams params;
  params.pins_per_side = 3;
  params.policy = BindingPolicy::kUnfixed;
  params.num_inlets = 3;
  params.num_outlets = 6;
  params.num_conflict_pairs = 1;
  params.seed = 7003;
  const ProblemSpec spec = cases::make_artificial(params);
  const TracedSolve serial = traced_solve(spec, 1);
  ASSERT_TRUE(serial.result.ok()) << serial.result.status().to_string();
  EXPECT_TRUE(events_named(serial.trace, "cp.split").empty());
  const std::vector<json::Value> incumbents =
      events_named(serial.trace, "cp.incumbent");
  ASSERT_FALSE(incumbents.empty());
  const json::Value* first = incumbents.front().find("args");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->get_number("nodes", -1), 12'509);
  for (const int jobs : {2, 4}) {
    const TracedSolve solve = traced_solve(spec, jobs);
    const std::string what = cat("jobs ", jobs);
    expect_same_answer(serial.result, solve.result, what);
    ASSERT_TRUE(solve.result.ok()) << what;
    EXPECT_EQ(solve.result->stats.nodes, serial.result->stats.nodes) << what;
    const json::Value split = split_args(solve);
    EXPECT_EQ(split.get_number("nodes", -1), 58'588) << what;
    EXPECT_NEAR(split.get_number("bound", -1), serial.result->objective, 1e-9)
        << what;
    EXPECT_EQ(split.get_number("workers", -1), jobs - 1) << what;
  }

  // A spec with no design at all hands off at the end of unit 0 with no
  // bound (null, not a non-JSON infinity).
  params.pins_per_side = 3;
  params.policy = BindingPolicy::kClockwise;
  params.num_inlets = 2;
  params.num_outlets = 3;
  params.num_conflict_pairs = 1;
  params.seed = 7000;
  const TracedSolve none = traced_solve(cases::make_artificial(params), 4);
  ASSERT_FALSE(none.result.ok());
  EXPECT_EQ(none.result.status().code(), StatusCode::kInfeasible);
  const json::Value split = split_args(none);
  EXPECT_EQ(split.get_number("nodes", -1), 5'508);
  ASSERT_NE(split.find("bound"), nullptr);
  EXPECT_TRUE(split.find("bound")->is_null());
}

TEST(SplitHandoffTest, CallerTakesHandedOffUnits) {
  // At jobs 2 the pool has one worker. The calling thread finishes unit 0
  // (about 12,000 nodes past the mark) and then takes handed-off units from
  // the same counter, while the worker has about 91,000 nodes in 32 units
  // to search: so some of the 32 cp.subtree spans run on the thread of the
  // cp.solve span.
  const TracedSolve solve =
      traced_solve(cases::chip_sw1(BindingPolicy::kUnfixed), 2);
  ASSERT_TRUE(solve.result.ok()) << solve.result.status().to_string();
  EXPECT_EQ(solve.result->stats.nodes, 107'672);
  const std::vector<json::Value> solves = events_named(solve.trace, "cp.solve");
  ASSERT_EQ(solves.size(), 1u);
  const double caller = solves[0].get_number("tid", -1);
  int spans = 0;
  int on_caller = 0;
  for (const json::Value& ev : solve.trace.as_array()) {
    if (ev.get_string("name", "").rfind("cp.subtree:", 0) != 0) continue;
    ++spans;
    on_caller += ev.get_number("tid", -2) == caller ? 1 : 0;
  }
  EXPECT_EQ(spans, 32);
  EXPECT_GE(on_caller, 1);
}

}  // namespace
}  // namespace mlsi::synth
