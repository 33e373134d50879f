// CP search: the verified symmetry rule, the clockwise first-pin split
// (the same answer at every job count) and — the ground truth —
// verdict/objective parity between the default search, the unreduced
// search (cp_symmetry off) and the independent IQP model on randomized
// instances. The Learning* suite names predate the removal of nogood
// learning from the search; they are kept so the test IDs stay stable.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "arch/crossbar.hpp"
#include "arch/gru.hpp"
#include "arch/paths.hpp"
#include "cases/artificial.hpp"
#include "cases/cases.hpp"
#include "obs/obs.hpp"
#include "support/executor.hpp"
#include "support/json.hpp"
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
  // over one pin per orbit and no later binding is pruned. Nucleic acid
  // explores exactly as many nodes as under the lex-leader breaker this
  // rule replaced, on the 8-pin crossbar and on one GRU, and proves the
  // optimum of the search over the full binding space.
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
  } switches[] = {{"crossbar", crossbar.topology, crossbar.paths, 1'290},
                  {"gru", gru, gru_paths, 268}};
  for (const auto& sw : switches) {
    EXPECT_TRUE(sw.paths.pin_symmetries().nontrivial()) << sw.name;
    const auto reduced = solve_cp(sw.topo, sw.paths, spec, params);
    const auto full = solve_cp(sw.topo, sw.paths, spec, unreduced);
    ASSERT_TRUE(reduced.ok()) << sw.name << ": " << reduced.status().to_string();
    ASSERT_TRUE(full.ok()) << sw.name << ": " << full.status().to_string();
    EXPECT_EQ(reduced->stats.nodes, sw.nodes) << sw.name;
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
  EXPECT_EQ(default_nodes, 634'135);
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

struct ClockwiseCase {
  const char* name;
  ProblemSpec (*make)(BindingPolicy);  ///< called with kClockwise
  /// Nodes the serial search explores; the split explores exactly as many
  /// because the first subtree already holds the optimum. 0: not pinned.
  long nodes;
};

// Without this gtest lists the case as its raw bytes, pointers included,
// so the test names ctest discovers would change from build to build.
void PrintTo(const ClockwiseCase& c, std::ostream* os) { *os << c.name; }

class ClockwiseSplitParityTest
    : public ::testing::TestWithParam<ClockwiseCase> {};

TEST_P(ClockwiseSplitParityTest, SameAnswerAtEveryJobCount) {
  const ClockwiseCase& param = GetParam();
  const ProblemSpec spec = param.make(BindingPolicy::kClockwise);
  ASSERT_EQ(spec.policy, BindingPolicy::kClockwise);
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

INSTANTIATE_TEST_SUITE_P(
    PaperCases, ClockwiseSplitParityTest,
    ::testing::Values(
        ClockwiseCase{"chip1_cw", cases::chip_sw1, 76'855},
        ClockwiseCase{"chip2_cw", cases::chip_sw2, 411'497},
        ClockwiseCase{"kin1_cw", cases::kinase_sw1, 0},
        ClockwiseCase{"kin2_cw", cases::kinase_sw2, 0},
        ClockwiseCase{"na_cw", cases::nucleic_acid, 0},
        ClockwiseCase{"mrna_cw", cases::mrna_isolation, 0},
        ClockwiseCase{"mrna13_cw", cases::mrna_13, 767'273},
        ClockwiseCase{"table42",
                      [](BindingPolicy) { return cases::table42_example(); },
                      246'496}),
    [](const ::testing::TestParamInfo<ClockwiseCase>& info) {
      return info.param.name;
    });

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

TEST(ClockwiseSplitTest, OnlyALargeFirstSubtreeStartsThePool) {
  // ChIP sw.2 explores 29,911 nodes under its first pin, so jobs 4 searches
  // the other 11 first pins on the pool, one cp.subtree span each; kinase
  // SW2 stays below the threshold and runs serially.
  auto& tracer = obs::Tracer::instance();
  const auto spans_of = [&](const ProblemSpec& spec) {
    const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
    const arch::PathSet paths = arch::enumerate_paths(topo);
    tracer.reset();
    tracer.enable();
    const auto result = solve_cp(topo, paths, spec, params_with_jobs(4));
    tracer.disable();
    EXPECT_TRUE(result.ok()) << result.status().to_string();
    const int spans = count_subtree_spans(tracer.to_json());
    tracer.reset();
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
  // search, which explores the same 411,497 nodes.
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
      for (const char* tally : {"bound", "breaks", "owner", "conflict"}) {
        ASSERT_NE(args->find(tally), nullptr) << tally;
        EXPECT_EQ(args->get_number(tally, -1),
                  serial_done.get_number(tally, -2))
            << tally;
      }
      EXPECT_GT(args->get_number("breaks", 0), 0);
    }
  }
  EXPECT_GE(incumbents, 1);
  EXPECT_EQ(done, 1);
  // The answer is the best incumbent any subtree recorded.
  EXPECT_NEAR(best_obj, result->objective, 1e-9);
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
  // The workers poll the caller's token directly: tripping it mid-solve
  // unwinds promptly and never reports a proof the search did not finish.
  const ProblemSpec spec = cases::mrna_13(BindingPolicy::kClockwise);
  const arch::SwitchTopology topo = arch::make_crossbar(spec.pins_per_side);
  const arch::PathSet paths = arch::enumerate_paths(topo);
  const auto serial = solve_cp(topo, paths, spec, params_with_jobs(1));
  ASSERT_TRUE(serial.ok()) << serial.status().to_string();

  support::StopSource source;
  EngineParams p = params_with_jobs(4);
  p.stop = source.token();
  Result<SynthesisResult> stopped{Status::Internal("not run")};
  std::thread worker(
      [&] { stopped = solve_cp(topo, paths, spec, p); });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  Timer timer;
  source.request_stop();
  worker.join();
  EXPECT_LT(timer.seconds(), 5.0);
  if (!stopped.ok()) {
    EXPECT_EQ(stopped.status().code(), StatusCode::kTimeout);
  } else if (stopped->stats.proven_optimal) {
    expect_same_answer(serial, stopped, "finished before the stop");
  } else {
    EXPECT_GE(stopped->objective, serial->objective - 1e-9);
  }
}

}  // namespace
}  // namespace mlsi::synth
