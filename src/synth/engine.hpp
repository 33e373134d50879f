#pragma once

/// \file engine.hpp
/// \brief Shared interface and registry of the synthesis engines.
///
/// All engines solve the same problem exactly:
///  * "cp" (cp_engine.hpp) — dedicated chronological branch & bound over
///    (binding, path, flow-set) assignments with incremental constraint
///    checks and, for unfixed bindings, verified symmetry breaking; fast on
///    every policy and the production choice.
///  * "iqp" (iqp_engine.hpp) — faithful reconstruction of the paper's
///    IQP, constraints (3.1)-(3.13), solved with mlsi::opt (the in-repo
///    Gurobi substitute). Tractable for fixed-policy models of any size and
///    for small clockwise/unfixed models; used for cross-validation and the
///    engine ablation.
///  * "portfolio" (portfolio.hpp) — races the exact engines (and, for the
///    clockwise policy, partitions of the cyclic-order enumeration) across
///    a thread pool with a shared incumbent; first proven-optimal racer
///    cancels the rest. Same optimum, less wall clock.
///
/// Engines share one call signature (EngineFn) and are resolved by name
/// through engine_from_string(), so the library, CLI and benches dispatch
/// uniformly. Engines return routing, binding, schedule, length and
/// objective; valve reduction, valve states and pressure sharing are
/// applied on top by the Synthesizer facade (synthesizer.hpp).

#include <atomic>
#include <memory>
#include <string_view>
#include <vector>

#include "arch/paths.hpp"
#include "arch/topology.hpp"
#include "opt/milp.hpp"
#include "support/executor.hpp"
#include "synth/result.hpp"
#include "synth/spec.hpp"

namespace mlsi::synth {

struct EngineParams {
  /// Wall-clock budget for one synthesis; unlimited by default. When the
  /// deadline expires the best incumbent is returned with
  /// stats.proven_optimal = false (paper runs took up to 13,449 s; the
  /// benches default to tighter budgets). The deadline is absolute, so it
  /// propagates unchanged into nested MILP/LP solves.
  support::Deadline deadline;
  /// Cooperative cancellation, checked in every node loop (CP dive, B&B
  /// node, LP pivot). An engine observing a tripped token unwinds promptly
  /// with its best incumbent, exactly as if the deadline had expired.
  support::StopToken stop;
  long max_nodes = 500'000'000;
  bool log = false;
  /// Worker threads for parallel engines ("portfolio") and batch runs;
  /// 0 means "use the hardware parallelism". Serial engines ignore it.
  int jobs = 0;
  /// Forwarded to the MILP solver by the IQP engine and the pressure ILP;
  /// its deadline/stop are tightened to the engine's own before use.
  opt::MilpParams milp;

  // --- CP search (cp engine; cp_search.hpp) -------------------------------

  /// Binding symmetry breaking for the unfixed policy: lex-leader orbit
  /// pruning from verified switch automorphisms, falling back to the seed's
  /// quarter-turn restriction when no symmetry verifies. Off disables
  /// binding symmetry breaking entirely (the ablation baseline of
  /// bench/cp_unfixed) — the full binding space is enumerated.
  bool cp_symmetry = true;

  // --- portfolio internals (set by solve_portfolio on its racers) ---------

  /// Cross-racer incumbent objective (an upper bound): racers prune against
  /// it and publish improvements with an atomic min. Null outside races.
  std::shared_ptr<std::atomic<double>> shared_incumbent;
  /// Clockwise policy: restrict the outer cyclic-shift enumeration to first
  /// pin positions p0 with p0 % stride == offset. The default (1, 0) covers
  /// the whole space; the portfolio hands each worker one residue class.
  int clockwise_stride = 1;
  int clockwise_offset = 0;
};

/// Common call signature of every registered engine.
using EngineFn = Result<SynthesisResult> (*)(const arch::SwitchTopology&,
                                             const arch::PathSet&,
                                             const ProblemSpec&,
                                             const EngineParams&);

/// Resolves an engine by name ("cp", "iqp", "portfolio"); kNotFound with
/// the known names otherwise. Mirrors binding_policy_from_string().
[[nodiscard]] Result<EngineFn> engine_from_string(std::string_view name);

/// Registered engine names, in registry order.
[[nodiscard]] std::vector<std::string_view> engine_names();

/// Adds a MILP solve's LP-engine telemetry (LP iterations and
/// factorizations, warm/cold starts, cuts generated/applied/dropped) into
/// \p into. Used by the IQP engine and the pressure-sharing ILP.
void add_milp_stats(EngineStats& into, const opt::SolveStats& from);

}  // namespace mlsi::synth
